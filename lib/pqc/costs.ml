type lib = Libcrypto | Libssl | Kernel | Libc | Ixgbe | Python

let lib_name = function
  | Libcrypto -> "libcrypto"
  | Libssl -> "libssl"
  | Kernel -> "kernel"
  | Libc -> "libc"
  | Ixgbe -> "ixgbe"
  | Python -> "python"

type op = { ms : float; lib : lib; label : string }

type kem_costs = { kem_keygen : op; kem_encaps : op; kem_decaps : op }
type sig_costs = { sign : op; verify : op; ch_overhead : float }
(* ch_overhead: extra server-side ClientHello processing observed for the
   OQS-provider signature algorithms (Table 2b's partA spread) *)

let crypto ms = { ms; lib = Libcrypto; label = "" }
let ssl ms = { ms; lib = Libssl; label = "" }

(* Diffie-Hellman wrapped as a KEM. OpenSSL key generation uses fixed-base
   (precomputed-table) scalar multiplication and is several times cheaper
   than the variable-base derive; encapsulation does both on the server. *)
let dh_kem ~kg ~derive =
  { kem_keygen = crypto kg;
    kem_encaps = crypto (kg +. derive);
    kem_decaps = crypto derive }

(* (keygen, encaps, decaps) in ms; fit notes reference Table 2a columns. *)
let base_kems =
  [ (* x25519 partA 0.25 => encaps ~ 0.13 + overhead *)
    ("x25519", dh_kem ~kg:0.045 ~derive:0.085);
    (* OpenSSL has fast P-256, generic P-384/P-521 (partA 0.33/3.09/6.97) *)
    ("p256", dh_kem ~kg:0.055 ~derive:0.19);
    ("p384", dh_kem ~kg:0.67 ~derive:2.3);
    ("p521", dh_kem ~kg:1.85 ~derive:5.0);
    ("kyber512",
     { kem_keygen = crypto 0.03; kem_encaps = crypto 0.055; kem_decaps = crypto 0.33 });
    ("kyber768",
     { kem_keygen = crypto 0.04; kem_encaps = crypto 0.09; kem_decaps = crypto 0.36 });
    ("kyber1024",
     { kem_keygen = crypto 0.05; kem_encaps = crypto 0.12; kem_decaps = crypto 0.35 });
    (* 90s variants trade SHAKE for AES-NI: slightly cheaper (Sec. 5.1) *)
    ("kyber90s512",
     { kem_keygen = crypto 0.025; kem_encaps = crypto 0.045; kem_decaps = crypto 0.34 });
    ("kyber90s768",
     { kem_keygen = crypto 0.03; kem_encaps = crypto 0.07; kem_decaps = crypto 0.32 });
    ("kyber90s1024",
     { kem_keygen = crypto 0.04; kem_encaps = crypto 0.095; kem_decaps = crypto 0.33 });
    (* HQC: moderate encaps, heavier decaps; client share shows up in
       libssl in the paper's Table 3 *)
    ("hqc128",
     { kem_keygen = crypto 0.14; kem_encaps = crypto 0.17; kem_decaps = ssl 0.25 });
    ("hqc192",
     { kem_keygen = crypto 0.3; kem_encaps = crypto 0.43; kem_decaps = ssl 0.62 });
    ("hqc256",
     { kem_keygen = crypto 0.43; kem_encaps = crypto 0.62; kem_decaps = ssl 1.75 });
    (* BIKE: cheap encaps, very expensive client decoding living in
       libssl (Table 3's finding) *)
    ("bikel1",
     { kem_keygen = crypto 0.6; kem_encaps = crypto 0.11; kem_decaps = ssl 2.6 });
    ("bikel3",
     { kem_keygen = crypto 1.3; kem_encaps = crypto 0.29; kem_decaps = ssl 5.85 }) ]

(* (sign, verify); fit notes reference Table 2b. *)
let base_sigs =
  [ ("rsa:1024", { sign = crypto 0.57; verify = crypto 0.015; ch_overhead = 0.07 });
    ("rsa:2048", { sign = crypto 1.37; verify = crypto 0.035; ch_overhead = 0. });
    ("rsa:3072", { sign = crypto 3.3; verify = crypto 0.06; ch_overhead = 0.01 });
    ("rsa:4096", { sign = crypto 6.76; verify = crypto 0.1; ch_overhead = 0. });
    (* ECDSA used only inside hybrid SAs: signing is fixed-base (cheap),
       verification is a double scalar multiplication (~1.2x a derive) *)
    ("p256", { sign = crypto 0.07; verify = crypto 0.28; ch_overhead = 0.02 });
    ("p384", { sign = crypto 1.35; verify = crypto 1.55; ch_overhead = 0.02 });
    ("p521", { sign = crypto 3.2; verify = crypto 3.3; ch_overhead = 0.02 });
    ("falcon512", { sign = crypto 0.85; verify = crypto 0.06; ch_overhead = 0.11 });
    ("falcon1024", { sign = crypto 1.7; verify = crypto 0.12; ch_overhead = 0.13 });
    ("dilithium2", { sign = crypto 0.60; verify = crypto 0.1; ch_overhead = 0.14 });
    ("dilithium3", { sign = crypto 0.63; verify = crypto 0.16; ch_overhead = 0.11 });
    ("dilithium5", { sign = crypto 0.67; verify = crypto 0.25; ch_overhead = 0.11 });
    ("dilithium2_aes", { sign = crypto 0.54; verify = crypto 0.09; ch_overhead = 0.14 });
    ("dilithium3_aes", { sign = crypto 0.56; verify = crypto 0.14; ch_overhead = 0.13 });
    ("dilithium5_aes", { sign = crypto 0.58; verify = crypto 0.22; ch_overhead = 0.11 });
    (* fastest profile: sphincs-haraka-Nf-simple *)
    ("sphincs128", { sign = crypto 13.5; verify = crypto 0.8; ch_overhead = 0.03 });
    ("sphincs192", { sign = crypto 22.0; verify = crypto 1.2; ch_overhead = 0.02 });
    ("sphincs256", { sign = crypto 46.5; verify = crypto 1.3; ch_overhead = 0.02 });
    (* the remaining profiles measured by the all-sphincs selection run:
       f = fast signing / big signatures, s = small / slow *)
    ("sphincs128f", { sign = crypto 13.5; verify = crypto 0.8; ch_overhead = 0.03 });
    ("sphincs192f", { sign = crypto 22.0; verify = crypto 1.2; ch_overhead = 0.02 });
    ("sphincs256f", { sign = crypto 46.5; verify = crypto 1.3; ch_overhead = 0.02 });
    ("sphincs128s", { sign = crypto 280.0; verify = crypto 0.35; ch_overhead = 0.03 });
    ("sphincs192s", { sign = crypto 510.0; verify = crypto 0.5; ch_overhead = 0.02 });
    ("sphincs256s", { sign = crypto 450.0; verify = crypto 0.7; ch_overhead = 0.02 }) ]

let add_op a b =
  { ms = a.ms +. b.ms;
    (* a hybrid's attribution follows the costlier component *)
    lib = (if a.ms >= b.ms then a.lib else b.lib);
    label = "" }

(* hybrid names split on '_', but algorithm names themselves may contain
   '_' (dilithium2_aes), so try whole-name lookup first. *)
let canonical name =
  match name with
  | "rsa1024" -> "rsa:1024"
  | "rsa2048" -> "rsa:2048"
  | "rsa3072" -> "rsa:3072"
  | "rsa4096" -> "rsa:4096"
  | n -> n

let rec lookup table combine name =
  let name = canonical name in
  match List.assoc_opt name table with
  | Some v -> v
  | None ->
    (match String.index_opt name '_' with
    | None -> raise Not_found
    | Some i ->
      let left = String.sub name 0 i in
      let right = String.sub name (i + 1) (String.length name - i - 1) in
      (match List.assoc_opt (canonical left) table with
      | None -> raise Not_found
      | Some l -> combine l (lookup table combine right)))

(* trace span names ("keygen kyber512", "sign dilithium2", ...) are
   stamped on the final lookup result, so hybrids carry the full name *)
let relabel label op = { op with label }

let kem name =
  let c =
    lookup base_kems
      (fun a b ->
        { kem_keygen = add_op a.kem_keygen b.kem_keygen;
          kem_encaps = add_op a.kem_encaps b.kem_encaps;
          kem_decaps = add_op a.kem_decaps b.kem_decaps })
      name
  in
  { kem_keygen = relabel ("keygen " ^ name) c.kem_keygen;
    kem_encaps = relabel ("encaps " ^ name) c.kem_encaps;
    kem_decaps = relabel ("decaps " ^ name) c.kem_decaps }

let sig_ name =
  let c =
    lookup base_sigs
      (fun a b ->
        { sign = add_op a.sign b.sign;
          verify = add_op a.verify b.verify;
          ch_overhead = a.ch_overhead +. b.ch_overhead })
      name
  in
  { c with
    sign = relabel ("sign " ^ name) c.sign;
    verify = relabel ("verify " ^ name) c.verify }

(* protocol overheads: fitted so the x25519 x rsa:2048 baseline reproduces
   partA = 0.25 ms, partB = 1.48 ms and 22.3 k handshakes / 60 s *)
let parse_client_hello = relabel "parse ClientHello" (ssl 0.03)
let build_server_flight = relabel "build server flight" (ssl 0.03)
let parse_server_flight = relabel "parse server flight" (ssl 0.05)
let build_client_finished = relabel "build client flight" (ssl 0.035)
let key_schedule_derive = relabel "key schedule" (crypto 0.012)
let aead_per_kilobyte = relabel "aead" (crypto 0.004)
let connection_setup = { ms = 0.05; lib = Kernel; label = "connection setup" }
let harness_gap_ms = 0.85
