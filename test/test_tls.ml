(* TLS 1.3: wire codecs, record protection, key schedule invariants, and
   full simulated handshakes with both real and mocked crypto. *)

let kem name = Pqc.Registry.find_kem name
let sa name = Pqc.Registry.find_sig name

(* ---- wire ------------------------------------------------------------------ *)

let test_wire_vectors () =
  Alcotest.(check string) "vec8" "\x03abc" (Tls.Wire.vec8 "abc");
  Alcotest.(check string) "vec16" "\x00\x03abc" (Tls.Wire.vec16 "abc");
  Alcotest.(check string) "vec24" "\x00\x00\x03abc" (Tls.Wire.vec24 "abc");
  let r = Tls.Wire.record Tls.Wire.Content_type.Handshake "hi" in
  Alcotest.(check string) "record header" "\x16\x03\x03\x00\x02hi" r;
  let m = Tls.Wire.handshake Tls.Wire.Handshake_type.Finished "mac!" in
  Alcotest.(check string) "handshake header" "\x14\x00\x00\x04mac!" m

let test_reader () =
  let r = Tls.Wire.Reader.of_string "\x01\x00\x02\x03abc" in
  Alcotest.(check int) "u8" 1 (Tls.Wire.Reader.u8 r);
  Alcotest.(check int) "u16" 2 (Tls.Wire.Reader.u16 r);
  Alcotest.(check string) "vec8" "abc" (Tls.Wire.Reader.vec8 r);
  Tls.Wire.Reader.expect_end r;
  Alcotest.check_raises "short read" (Tls.Wire.Decode_error "short read: want 4 have 0")
    (fun () -> ignore (Tls.Wire.Reader.bytes r 4))

(* ---- messages ---------------------------------------------------------------- *)

let test_client_hello_roundtrip () =
  let rng = Crypto.Drbg.create ~seed:"tls-ch" in
  List.iter
    (fun kem_name ->
      let k = kem kem_name in
      let kp = k.Pqc.Kem.keygen rng in
      let ch =
        { Tls.Messages.random = Crypto.Drbg.generate rng 32;
          session_id = Crypto.Drbg.generate rng 32;
          group = kem_name;
          key_share = kp.Pqc.Kem.public;
          sig_algs = [ "rsa:2048"; "dilithium3" ];
          psk_offer = None;
          early_data = false }
      in
      let enc = Tls.Messages.encode_client_hello ch in
      let dec = Tls.Messages.decode_client_hello enc in
      Alcotest.(check string) "group" kem_name dec.Tls.Messages.group;
      Alcotest.(check bool) "key share" true
        (dec.Tls.Messages.key_share = ch.Tls.Messages.key_share);
      Alcotest.(check (list string)) "sig algs" ch.Tls.Messages.sig_algs
        dec.Tls.Messages.sig_algs)
    [ "x25519"; "hqc256"; "p521_kyber1024" ]

let test_server_hello_roundtrip () =
  let rng = Crypto.Drbg.create ~seed:"tls-sh" in
  let sh =
    { Tls.Messages.sh_random = Crypto.Drbg.generate rng 32;
      sh_session_id = Crypto.Drbg.generate rng 32;
      sh_group = "kyber768";
      sh_key_share = Crypto.Drbg.generate rng 1088;
      sh_psk_selected = false }
  in
  let dec = Tls.Messages.decode_server_hello (Tls.Messages.encode_server_hello sh) in
  Alcotest.(check bool) "roundtrip" true (dec = sh)

let test_certificate_roundtrip () =
  let alg = sa "dilithium2" in
  let chain, _ = Tls.Certificate.make_chain alg (Crypto.Drbg.create ~seed:"cert") in
  Alcotest.(check bool) "chain verifies" true (Tls.Certificate.verify chain alg);
  let enc = Tls.Messages.encode_certificate chain.Tls.Certificate.leaf in
  let dec = Tls.Messages.decode_certificate enc in
  Alcotest.(check bool) "certificate roundtrip" true
    (dec = chain.Tls.Certificate.leaf);
  (* a tampered TBS must fail chain verification *)
  let bad = { chain with
              Tls.Certificate.leaf =
                { chain.Tls.Certificate.leaf with Tls.Certificate.subject = "evil" } }
  in
  Alcotest.(check bool) "tampered subject" false (Tls.Certificate.verify bad alg)

(* ---- certificate hierarchies --------------------------------------------------- *)

let test_chain_codec () =
  let profile = Tls.Chain_profile.find "mixed-acme" in
  let rng = Crypto.Drbg.create ~seed:"chain-codec" in
  let chain, _ = Tls.Chain.make profile ~leaf:(sa "dilithium2") rng in
  let certs = Tls.Chain.wire_certs chain in
  Alcotest.(check int) "leaf + two intermediates on the wire" 3
    (List.length certs);
  let enc = Tls.Messages.encode_certificate_chain certs in
  Alcotest.(check bool) "chain codec roundtrip" true
    (Tls.Messages.decode_certificate_chain enc = certs);
  (* the single-leaf encoder is the 1-entry chain encoder, byte for byte:
     the default profile's Certificate message cannot move *)
  let leaf = Tls.Chain.leaf chain in
  Alcotest.(check string) "leaf encoder == 1-entry chain"
    (Tls.Messages.encode_certificate_chain [ leaf ])
    (Tls.Messages.encode_certificate leaf);
  (* the level accounting matches what actually gets encoded *)
  Alcotest.(check int) "wire_bytes matches encoded entries"
    (List.fold_left
       (fun a c ->
         a + String.length (Tls.Certificate.encode c) + Tls.Chain.entry_overhead)
       0 certs)
    (Tls.Chain.wire_bytes chain);
  Alcotest.check_raises "empty certificate_list rejected"
    (Tls.Wire.Decode_error "Certificate: empty certificate_list") (fun () ->
      ignore
        (Tls.Messages.decode_certificate_chain
           (Tls.Messages.encode_certificate_chain [])))

let test_chain_verify () =
  let profile = Tls.Chain_profile.find "mixed-acme" in
  let make seed =
    fst (Tls.Chain.make profile ~leaf:(sa "dilithium2") (Crypto.Drbg.create ~seed))
  in
  let chain = make "chain-verify" in
  Alcotest.(check bool) "full chain verifies" true (Tls.Chain.verify chain);
  let certs = Tls.Chain.wire_certs chain in
  let nth_map i f = List.mapi (fun j c -> if j = i then f c else c) certs in
  let flip s =
    String.mapi (fun i c -> if i = 0 then Char.chr (Char.code c lxor 1) else c) s
  in
  let ok cs = Tls.Chain.verify_against ~local:chain cs in
  Alcotest.(check bool) "tampered intermediate signature" false
    (ok
       (nth_map 1 (fun c ->
            { c with Tls.Certificate.signature = flip c.Tls.Certificate.signature })));
  Alcotest.(check bool) "wrong-level SA" false
    (ok (nth_map 1 (fun c -> { c with Tls.Certificate.algorithm = "rsa:2048" })));
  Alcotest.(check bool) "truncated chain" false
    (ok (match certs with l :: i1 :: _ -> [ l; i1 ] | _ -> assert false));
  (* a structurally identical chain under a different root: every inner
     signature is self-consistent, only the trust anchor disagrees *)
  let other = make "chain-verify-other" in
  Alcotest.(check bool) "other chain self-verifies" true (Tls.Chain.verify other);
  Alcotest.(check bool) "unknown root rejected" false
    (ok (Tls.Chain.wire_certs other))

let test_chain_default_identity () =
  (* the default profile must reproduce Certificate.make_chain exactly:
     same DRBG draws, same lone leaf, same anchor, same server keypair *)
  let alg = sa "dilithium2" in
  let legacy, legacy_kp =
    Tls.Certificate.make_chain alg (Crypto.Drbg.create ~seed:"cert")
  in
  let chain, kp =
    Tls.Chain.make Tls.Chain_profile.default ~leaf:alg
      (Crypto.Drbg.create ~seed:"cert")
  in
  Alcotest.(check bool) "same leaf" true
    (Tls.Chain.leaf chain = legacy.Tls.Certificate.leaf);
  Alcotest.(check bool) "same anchor" true
    (chain.Tls.Chain.anchor_key = legacy.Tls.Certificate.ca_public_key);
  Alcotest.(check bool) "same server keypair" true (kp = legacy_kp);
  Alcotest.(check bool) "single wire entry" true
    (List.length (Tls.Chain.wire_certs chain) = 1);
  Alcotest.(check bool) "verifies" true (Tls.Chain.verify chain)

(* ---- record protection ------------------------------------------------------- *)

let test_record_protection () =
  let secret = Crypto.Sha256.digest "traffic" in
  let keys = Tls.Key_schedule.traffic_keys secret in
  let w = Tls.Record.create keys and r = Tls.Record.create keys in
  let records =
    List.map (Tls.Record.seal w Tls.Wire.Content_type.Handshake)
      [ "first"; "second"; "third" ]
  in
  List.iteri
    (fun i rec_bytes ->
      let body = String.sub rec_bytes 5 (String.length rec_bytes - 5) in
      match Tls.Record.open_ r body with
      | Some (Tls.Wire.Content_type.Handshake, frag) ->
        Alcotest.(check string) "fragment" (List.nth [ "first"; "second"; "third" ] i) frag
      | _ -> Alcotest.fail "open failed")
    records;
  (* sequence-number mismatch (replay) must fail *)
  let w2 = Tls.Record.create keys and r2 = Tls.Record.create keys in
  let one = Tls.Record.seal w2 Tls.Wire.Content_type.Handshake "x" in
  let body = String.sub one 5 (String.length one - 5) in
  (match Tls.Record.open_ r2 body with Some _ -> () | None -> Alcotest.fail "first");
  Alcotest.(check bool) "replay rejected" true (Tls.Record.open_ r2 body = None)

let test_null_records () =
  let w = Tls.Record.create_null () and r = Tls.Record.create_null () in
  let sealed = Tls.Record.seal w Tls.Wire.Content_type.Handshake "payload" in
  (* identical sizes to the AEAD path: 5 header + len + 1 type + 16 tag *)
  Alcotest.(check int) "size preserved" (5 + 7 + 1 + 16) (String.length sealed);
  (match Tls.Record.open_ r (String.sub sealed 5 (String.length sealed - 5)) with
  | Some (Tls.Wire.Content_type.Handshake, "payload") -> ()
  | _ -> Alcotest.fail "null open");
  Alcotest.(check bool) "null tamper detected" true
    (Tls.Record.open_ r (String.make 24 '\000') = None)

(* ---- key schedule --------------------------------------------------------------- *)

let test_key_schedule () =
  let ss = Crypto.Sha256.digest "shared" in
  let th = Crypto.Sha256.digest "transcript" in
  let s1 = Tls.Key_schedule.handshake_secrets ~shared_secret:ss ~hello_transcript_hash:th () in
  let s2 = Tls.Key_schedule.handshake_secrets ~shared_secret:ss ~hello_transcript_hash:th () in
  Alcotest.(check bool) "deterministic" true (s1 = s2);
  Alcotest.(check bool) "client <> server secret" true
    (s1.Tls.Key_schedule.client_handshake_traffic
    <> s1.Tls.Key_schedule.server_handshake_traffic);
  let other =
    Tls.Key_schedule.handshake_secrets ~shared_secret:(Crypto.Sha256.digest "x")
      ~hello_transcript_hash:th ()
  in
  Alcotest.(check bool) "secret-sensitive" true
    (other.Tls.Key_schedule.master <> s1.Tls.Key_schedule.master);
  let keys = Tls.Key_schedule.traffic_keys s1.Tls.Key_schedule.client_handshake_traffic in
  Alcotest.(check int) "aes-128 key" 16 (String.length keys.Tls.Key_schedule.key);
  Alcotest.(check int) "iv" 12 (String.length keys.Tls.Key_schedule.iv);
  (* RFC 8446 appendix: expand-label framing sanity via known reference
     derive of the "derived" label on a zero salt *)
  let label_out =
    Tls.Key_schedule.hkdf_expand_label ~secret:(String.make 32 '\000')
      ~label:"derived" ~context:(Crypto.Sha256.digest "") 32
  in
  Alcotest.(check int) "expand-label length" 32 (String.length label_out)

(* ---- resumption: key-schedule vectors, binders, tickets ---------------------------- *)

let hex = Crypto.Bytesx.of_hex

let test_key_schedule_vectors () =
  (* RFC 8446 key schedule on SHA-256: Extract(salt "", ikm zeros) *)
  Alcotest.(check bool) "no-PSK early secret" true
    (Tls.Key_schedule.early_secret ()
    = hex "33ad0a1c607ec03b09e6cd9893680ce210adf300aa1f2660e1b22e10f170f92a");
  (* RFC 8448 section 4 (resumed handshake): the resumption PSK and the
     early secret extracted from it *)
  let psk =
    hex "4ecd0eb6ec3b4d87f5d6028f922ca4c5851a277fd41311c9e62d2c9492e1c4f3"
  in
  Alcotest.(check bool) "RFC 8448 early secret" true
    (Tls.Key_schedule.early_secret ~psk ()
    = hex "9b2188e9b2fc6d64d71dc329900e20bb41915000f678aa839cbb797cb7d8332c")

let test_no_psk_regression () =
  (* ?psk:None must stay byte-identical to the historical zero-ikm path;
     an explicit all-zero PSK is the same ikm, a real PSK is not *)
  let ss = Crypto.Sha256.digest "shared" and th = Crypto.Sha256.digest "th" in
  let legacy =
    Tls.Key_schedule.handshake_secrets ~shared_secret:ss
      ~hello_transcript_hash:th ()
  in
  let zeros =
    Tls.Key_schedule.handshake_secrets ~psk:(String.make 32 '\000')
      ~shared_secret:ss ~hello_transcript_hash:th ()
  in
  Alcotest.(check bool) "zero PSK == no PSK" true (legacy = zeros);
  let with_psk =
    Tls.Key_schedule.handshake_secrets ~psk:(Crypto.Sha256.digest "psk")
      ~shared_secret:ss ~hello_transcript_hash:th ()
  in
  Alcotest.(check bool) "real PSK changes secrets" true (with_psk <> legacy)

(* extension types of an encoded ClientHello, in wire order *)
let extension_types msg =
  let r = Tls.Wire.Reader.of_string (Tls.Messages.body msg) in
  ignore (Tls.Wire.Reader.u16 r) (* legacy_version *);
  ignore (Tls.Wire.Reader.bytes r 32) (* random *);
  ignore (Tls.Wire.Reader.vec8 r) (* session_id *);
  ignore (Tls.Wire.Reader.vec16 r) (* cipher_suites *);
  ignore (Tls.Wire.Reader.vec8 r) (* compression *);
  let er = Tls.Wire.Reader.of_string (Tls.Wire.Reader.vec16 r) in
  let rec loop acc =
    if Tls.Wire.Reader.remaining er = 0 then List.rev acc
    else begin
      let ty = Tls.Wire.Reader.u16 er in
      ignore (Tls.Wire.Reader.vec16 er);
      loop (ty :: acc)
    end
  in
  loop []

let make_offer rng ?(binder = String.make 32 '\000') () =
  { Tls.Messages.random = Crypto.Drbg.generate rng 32;
    session_id = Crypto.Drbg.generate rng 32;
    group = "kyber768";
    key_share = Crypto.Drbg.generate rng 1184;
    sig_algs = [ "rsa:2048" ];
    psk_offer =
      Some
        { Tls.Messages.psk_identity = Crypto.Drbg.generate rng 150;
          psk_obfuscated_age = 0x11223344;
          psk_binder = binder };
    early_data = true }

let test_psk_client_hello () =
  let rng = Crypto.Drbg.create ~seed:"tls-psk-ch" in
  let ch = make_offer rng () in
  let enc = Tls.Messages.encode_client_hello ch in
  (* pre_shared_key (41) last, legacy session_ticket stub (35) dropped,
     early_data (42) present *)
  let tys = extension_types enc in
  Alcotest.(check bool) "psk last" true (List.nth tys (List.length tys - 1) = 41);
  Alcotest.(check bool) "session_ticket stub dropped" false (List.mem 35 tys);
  Alcotest.(check bool) "early_data offered" true (List.mem 42 tys);
  (* the full handshake keeps the stub and never offers a PSK *)
  let full_tys =
    extension_types
      (Tls.Messages.encode_client_hello
         { ch with Tls.Messages.psk_offer = None; early_data = false })
  in
  Alcotest.(check bool) "stub on full handshake" true (List.mem 35 full_tys);
  Alcotest.(check bool) "no psk on full handshake" false (List.mem 41 full_tys);
  (* codec roundtrip preserves the offer *)
  let dec = Tls.Messages.decode_client_hello enc in
  Alcotest.(check bool) "offer roundtrip" true (dec.Tls.Messages.psk_offer = ch.Tls.Messages.psk_offer);
  Alcotest.(check bool) "early_data roundtrip" true dec.Tls.Messages.early_data;
  (* truncation removes exactly the binders list from the end *)
  Alcotest.(check int) "truncation length" (String.length enc - Tls.Messages.binders_length)
    (String.length (Tls.Messages.truncated_client_hello ch))

let test_binder_mac () =
  let rng = Crypto.Drbg.create ~seed:"tls-binder" in
  let psk = Crypto.Drbg.generate rng 32 in
  let binder_of psk ch =
    let early = Tls.Key_schedule.early_secret ~psk () in
    Tls.Key_schedule.binder_mac
      ~binder_key:(Tls.Key_schedule.binder_key ~early_secret:early)
      ~truncated_transcript_hash:
        (Crypto.Sha256.digest (Tls.Messages.truncated_client_hello ch))
  in
  (* the truncated transcript is independent of the binder value, so the
     dummy-binder encoding computes the same MAC the final CH carries *)
  let dummy = make_offer rng () in
  let mac = binder_of psk dummy in
  let final = { dummy with Tls.Messages.psk_offer =
                  Option.map (fun o -> { o with Tls.Messages.psk_binder = mac })
                    dummy.Tls.Messages.psk_offer }
  in
  Alcotest.(check bool) "binder independent of binder bytes" true
    (Tls.Messages.truncated_client_hello final
    = Tls.Messages.truncated_client_hello dummy);
  (* negatives: a different PSK, or a different truncated transcript,
     must move the MAC *)
  Alcotest.(check bool) "wrong PSK detected" true
    (binder_of (Crypto.Drbg.generate rng 32) dummy <> mac);
  let other_ch = make_offer (Crypto.Drbg.create ~seed:"tls-binder-3") () in
  Alcotest.(check bool) "transcript-sensitive" true (binder_of psk other_ch <> mac)

let test_ticket_roundtrip () =
  let rng = Crypto.Drbg.create ~seed:"tls-nst" in
  let nst =
    { Tls.Messages.nst_lifetime = 7200;
      nst_age_add = 0xdeadbeef;
      nst_nonce = "\x00";
      nst_ticket = Crypto.Drbg.generate rng 150;
      nst_max_early_data = 16384 }
  in
  let enc = Tls.Messages.encode_new_session_ticket nst in
  Alcotest.(check bool) "nst roundtrip" true
    (Tls.Messages.decode_new_session_ticket enc = nst);
  (* no 0-RTT permission: the early_data ticket extension disappears *)
  let no_early = { nst with Tls.Messages.nst_max_early_data = 0 } in
  let enc0 = Tls.Messages.encode_new_session_ticket no_early in
  Alcotest.(check bool) "nst without early_data" true
    (Tls.Messages.decode_new_session_ticket enc0 = no_early);
  Alcotest.(check bool) "early_data ext costs bytes" true
    (String.length enc > String.length enc0);
  (* and the message survives TCP refragmentation through the codec *)
  let inb = Tls.Codec.Inbound.create () in
  let stream = Tls.Codec.fragment_plaintext enc in
  String.iter (fun c -> Tls.Codec.Inbound.feed inb (String.make 1 c)) stream;
  (match Tls.Codec.Inbound.next inb with
  | Tls.Codec.Inbound.Handshake_message m ->
    Alcotest.(check bool) "codec roundtrip" true
      (Tls.Messages.decode_new_session_ticket m = nst)
  | _ -> Alcotest.fail "codec did not yield the ticket")

(* ---- full handshakes --------------------------------------------------------------- *)

type hs_outcome = {
  part_a : float;
  part_b : float;
  client_bytes : int;
  server_bytes : int;
}

let run_handshake ?(buffering = Tls.Config.Optimized_push) ?chain_profile ~real
    kem_name sig_name =
  let engine = Netsim.Engine.create () in
  let trace = Netsim.Tap.create () in
  let rng = Crypto.Drbg.create ~seed:"tls-hs" in
  let link =
    Netsim.Link.create engine (Crypto.Drbg.fork rng "link") Netsim.Link.ideal
      ~tap:(fun t p -> Netsim.Tap.tap trace t p)
  in
  let client_host = Netsim.Host.create engine ~name:"client" in
  let server_host = Netsim.Host.create engine ~name:"server" in
  let config =
    (if real then Tls.Config.make else Tls.Config.mocked)
      ~buffering ?chain_profile (kem kem_name) (sa sig_name)
  in
  let result = ref None in
  Tls.Handshake.run ~engine ~link ~tcp_config:Netsim.Tcp.default_config
    ~client_host ~server_host ~config ~rng ~on_done:(fun r -> result := Some r)
    ();
  Netsim.Engine.run engine;
  match !result with
  | None -> Alcotest.fail (Printf.sprintf "%s x %s did not complete" kem_name sig_name)
  | Some r ->
    let t label = (Option.get (Netsim.Tap.find_mark trace label)).Netsim.Tap.time in
    { part_a = t "SH" -. t "CH";
      part_b = t "FIN_C" -. t "SH";
      client_bytes = Netsim.Tcp.bytes_sent r.Tls.Handshake.client_tcp;
      server_bytes = Netsim.Tcp.bytes_sent r.Tls.Handshake.server_tcp }

(* one full handshake that issues a ticket, then one resumed handshake
   on the same simulated network; returns (full, resumed) results *)
let run_resumption ?(early_data = false) ?tamper ~real kem_name sig_name =
  let engine = Netsim.Engine.create () in
  let rng = Crypto.Drbg.create ~seed:"tls-resume" in
  let link =
    Netsim.Link.create engine (Crypto.Drbg.fork rng "link") Netsim.Link.ideal
      ~tap:(fun _ _ -> ())
  in
  let client_host = Netsim.Host.create engine ~name:"client" in
  let server_host = Netsim.Host.create engine ~name:"server" in
  let config =
    (if real then Tls.Config.make else Tls.Config.mocked) (kem kem_name)
      (sa sig_name)
  in
  let session = ref None and full = ref None and resumed = ref None in
  Tls.Handshake.run ~engine ~link ~tcp_config:Netsim.Tcp.default_config
    ~client_host ~server_host ~config ~rng ~issue_ticket:true
    ~on_ticket:(fun s -> session := Some s)
    ~on_done:(fun r -> full := Some r)
    ();
  Netsim.Engine.run engine;
  let s =
    match !session with
    | Some s -> (match tamper with Some f -> f s | None -> s)
    | None -> Alcotest.fail "no ticket issued"
  in
  Tls.Handshake.run ~engine ~link ~tcp_config:Netsim.Tcp.default_config
    ~client_host ~server_host ~config
    ~rng:(Crypto.Drbg.fork rng "second") ~resume:s ~early_data
    ~on_done:(fun r -> resumed := Some r)
    ();
  Netsim.Engine.run engine;
  (Option.get !full, Option.get !resumed)

let test_resumption_omits_certificate () =
  (* the resumed server flight has no Certificate/CertificateVerify: with
     SPHINCS+ that is tens of kB of wire that must disappear *)
  let full, res = run_resumption ~real:false "kyber512" "sphincs128" in
  Alcotest.(check bool) "full not resumed" false full.Tls.Handshake.resumed;
  Alcotest.(check bool) "resumed" true res.Tls.Handshake.resumed;
  let fb = Netsim.Tcp.bytes_sent full.Tls.Handshake.server_tcp in
  let rb = Netsim.Tcp.bytes_sent res.Tls.Handshake.server_tcp in
  (* sphincs128's chain+sig flight is ~37 kB; the resumed flight is a
     couple of records. Require an order-of-magnitude collapse. *)
  Alcotest.(check bool)
    (Printf.sprintf "server flight collapses (%d -> %d B)" fb rb)
    true
    (fb > 30_000 && rb * 10 < fb)

let test_resumption_mocked_equals_real () =
  let wire (full, res) =
    ( Netsim.Tcp.bytes_sent full.Tls.Handshake.server_tcp,
      Netsim.Tcp.bytes_sent res.Tls.Handshake.server_tcp,
      Netsim.Tcp.bytes_sent res.Tls.Handshake.client_tcp,
      res.Tls.Handshake.client_finished_at )
  in
  let a = wire (run_resumption ~real:true "kyber768" "dilithium3") in
  let b = wire (run_resumption ~real:false "kyber768" "dilithium3") in
  Alcotest.(check bool) "mocked == real on the resumed path" true (a = b)

let test_zero_rtt () =
  let _, res = run_resumption ~real:false ~early_data:true "kyber768" "dilithium3" in
  Alcotest.(check int) "0-RTT bytes accepted" Tls.Handshake.early_data_size
    res.Tls.Handshake.early_data_bytes;
  (* without early data the server accepts none *)
  let _, plain = run_resumption ~real:false "kyber768" "dilithium3" in
  Alcotest.(check int) "no 0-RTT by default" 0 plain.Tls.Handshake.early_data_bytes

let test_binder_mismatch_fails_closed () =
  (* a client whose PSK disagrees with the (intact) ticket computes a
     wrong binder; the server must refuse before any flight is sent *)
  let flip s = String.mapi (fun i c -> if i = 0 then Char.chr (Char.code c lxor 1) else c) s in
  Alcotest.check_raises "binder mismatch"
    (Tls.Wire.Decode_error "PSK binder mismatch") (fun () ->
      ignore
        (run_resumption ~real:false
           ~tamper:(fun s -> { s with Tls.Handshake.psk = flip s.Tls.Handshake.psk })
           "kyber768" "dilithium3"));
  (* a corrupted ticket fails the STEK open instead; flip a ciphertext
     byte (past the 5-byte record header, which open_ticket discards) *)
  let flip_ct s =
    String.mapi (fun i c -> if i = 8 then Char.chr (Char.code c lxor 1) else c) s
  in
  Alcotest.check_raises "ticket corruption"
    (Tls.Wire.Decode_error "ticket decryption failed") (fun () ->
      ignore
        (run_resumption ~real:true
           ~tamper:(fun s ->
             { s with Tls.Handshake.ticket = flip_ct s.Tls.Handshake.ticket })
           "kyber768" "dilithium3"))

let test_truncated_key_share_fails_closed () =
  (* RFC 8446 section 4.2.8: a key share one byte short for the hybrid
     group is a decode error before the KEM runs, where the real hybrid
     would otherwise split it with String.sub and raise Invalid_argument *)
  let k = kem "p256_kyber512" in
  let truncate s = String.sub s 0 (String.length s - 1) in
  let run kem =
    let engine = Netsim.Engine.create () in
    let rng = Crypto.Drbg.create ~seed:"tls-short-share" in
    let link =
      Netsim.Link.create engine (Crypto.Drbg.fork rng "link") Netsim.Link.ideal
        ~tap:(fun _ _ -> ())
    in
    Tls.Handshake.run ~engine ~link ~tcp_config:Netsim.Tcp.default_config
      ~client_host:(Netsim.Host.create engine ~name:"client")
      ~server_host:(Netsim.Host.create engine ~name:"server")
      ~config:(Tls.Config.make kem (sa "rsa:2048"))
      ~rng ~on_done:ignore ();
    Netsim.Engine.run engine
  in
  Alcotest.check_raises "short client share"
    (Tls.Wire.Decode_error "client key share has the wrong length") (fun () ->
      run
        { k with
          Pqc.Kem.keygen =
            (fun rng ->
              let kp = k.Pqc.Kem.keygen rng in
              { kp with Pqc.Kem.public = truncate kp.Pqc.Kem.public }) });
  Alcotest.check_raises "short server share"
    (Tls.Wire.Decode_error "server key share has the wrong length") (fun () ->
      run
        { k with
          Pqc.Kem.encaps =
            (fun rng pk ->
              let ct, ss = k.Pqc.Kem.encaps rng pk in
              (truncate ct, ss)) })

let test_handshake_completes_everywhere () =
  (* every KA and every SA completes a handshake (mocked for speed) *)
  List.iter
    (fun (k : Pqc.Kem.t) -> ignore (run_handshake ~real:false k.Pqc.Kem.name "rsa:2048"))
    Pqc.Registry.kems;
  List.iter
    (fun (s : Pqc.Sigalg.t) -> ignore (run_handshake ~real:false "x25519" s.Pqc.Sigalg.name))
    Pqc.Registry.sigs

let test_real_handshakes () =
  (* the real cryptographic stacks complete too *)
  List.iter
    (fun (k, s) -> ignore (run_handshake ~real:true k s))
    [ ("x25519", "rsa:2048"); ("kyber512", "dilithium2");
      ("p256_kyber512", "p256_dilithium2"); ("kyber1024", "falcon1024") ]

let test_mocked_equals_real () =
  (* the design invariant behind the measurement campaigns: mocked and
     real crypto produce byte- and time-identical simulations *)
  List.iter
    (fun (k, s) ->
      let a = run_handshake ~real:true k s in
      let b = run_handshake ~real:false k s in
      Alcotest.(check (float 1e-9)) (k ^ " partA invariant") a.part_a b.part_a;
      Alcotest.(check (float 1e-9)) (k ^ " partB invariant") a.part_b b.part_b;
      Alcotest.(check int) (k ^ " client bytes invariant") a.client_bytes b.client_bytes;
      Alcotest.(check int) (k ^ " server bytes invariant") a.server_bytes b.server_bytes)
    [ ("x25519", "rsa:2048"); ("kyber768", "dilithium3");
      ("bikel1", "sphincs128"); ("p384_kyber768", "p384_dilithium3") ]

let test_chain_handshakes () =
  (* every chain profile completes a handshake *)
  List.iter
    (fun (p : Tls.Chain_profile.t) ->
      ignore (run_handshake ~real:false ~chain_profile:p "x25519" "rsa:2048"))
    Tls.Chain_profile.all;
  (* an explicit default profile is byte- and time-identical to omitting
     the argument: Tables 2-6 cannot move *)
  let plain = run_handshake ~real:false "kyber768" "dilithium3" in
  let explicit =
    run_handshake ~real:false ~chain_profile:Tls.Chain_profile.default
      "kyber768" "dilithium3"
  in
  Alcotest.(check bool) "explicit default == no profile" true (plain = explicit);
  (* intermediates ride in the server flight and cost wire bytes *)
  let deep =
    run_handshake ~real:false
      ~chain_profile:(Tls.Chain_profile.find "mixed-acme") "kyber768"
      "dilithium3"
  in
  Alcotest.(check bool) "intermediates cost server bytes" true
    (deep.server_bytes > plain.server_bytes + 5000);
  (* per-level verification CPU lands on the client's clock *)
  Alcotest.(check bool) "chain verification costs client time" true
    (deep.part_b > plain.part_b)

let test_chain_mocked_equals_real () =
  (* the campaign invariant holds on every non-default shape *)
  List.iter
    (fun pname ->
      let profile = Tls.Chain_profile.find pname in
      let a = run_handshake ~real:true ~chain_profile:profile "kyber768" "dilithium3" in
      let b = run_handshake ~real:false ~chain_profile:profile "kyber768" "dilithium3" in
      Alcotest.(check (float 1e-9)) (pname ^ " partA invariant") a.part_a b.part_a;
      Alcotest.(check (float 1e-9)) (pname ^ " partB invariant") a.part_b b.part_b;
      Alcotest.(check int) (pname ^ " client bytes invariant") a.client_bytes
        b.client_bytes;
      Alcotest.(check int) (pname ^ " server bytes invariant") a.server_bytes
        b.server_bytes)
    [ "classical-shape"; "slhdsa-root"; "mixed-acme" ]

let test_buffering_modes () =
  (* default buffering withholds the SH until the whole flight is ready
     (for a small flight), so partA grows by roughly the signing time *)
  let opt = run_handshake ~real:false "x25519" "rsa:2048" in
  let def =
    run_handshake ~real:false ~buffering:Tls.Config.Default_buffered "x25519" "rsa:2048"
  in
  Alcotest.(check bool) "default delays SH" true (def.part_a > opt.part_a +. 0.001);
  (* a large certificate overflows the 4096 B buffer and pushes the SH
     early even in default mode *)
  let def_big =
    run_handshake ~real:false ~buffering:Tls.Config.Default_buffered "x25519" "sphincs128"
  in
  Alcotest.(check bool) "overflow pushes SH early" true (def_big.part_a < 0.002)

let test_handshake_sizes_scale () =
  let small = run_handshake ~real:false "x25519" "rsa:2048" in
  let big = run_handshake ~real:false "hqc256" "sphincs256" in
  Alcotest.(check bool) "hqc CH bigger" true (big.client_bytes > small.client_bytes + 7000);
  Alcotest.(check bool) "sphincs flight bigger" true
    (big.server_bytes > small.server_bytes + 100_000)

let test_codec_inbound () =
  (* records split across arbitrary TCP chunk boundaries *)
  let msgs =
    [ Tls.Wire.handshake Tls.Wire.Handshake_type.Finished (String.make 40 'a');
      Tls.Wire.handshake Tls.Wire.Handshake_type.Finished (String.make 20000 'b') ]
  in
  let stream =
    String.concat ""
      (List.map Tls.Codec.fragment_plaintext msgs)
  in
  let inb = Tls.Codec.Inbound.create () in
  let got = ref [] in
  let pos = ref 0 and step = ref 1 in
  while !pos < String.length stream do
    let take = min !step (String.length stream - !pos) in
    Tls.Codec.Inbound.feed inb (String.sub stream !pos take);
    pos := !pos + take;
    step := (!step * 13 mod 977) + 1;
    let rec drain () =
      match Tls.Codec.Inbound.next inb with
      | Tls.Codec.Inbound.Handshake_message m ->
        got := m :: !got;
        drain ()
      | Tls.Codec.Inbound.Change_cipher_spec
      | Tls.Codec.Inbound.Application_data _ ->
        drain ()
      | Tls.Codec.Inbound.Need_more_data -> ()
    in
    drain ()
  done;
  Alcotest.(check int) "both messages" 2 (List.length !got);
  Alcotest.(check bool) "reassembled exactly" true (List.rev !got = msgs)

let suites =
  [ ( "tls",
      [ Alcotest.test_case "wire vectors" `Quick test_wire_vectors;
        Alcotest.test_case "reader" `Quick test_reader;
        Alcotest.test_case "client hello codec" `Quick test_client_hello_roundtrip;
        Alcotest.test_case "server hello codec" `Quick test_server_hello_roundtrip;
        Alcotest.test_case "certificate chain" `Quick test_certificate_roundtrip;
        Alcotest.test_case "chain codec" `Quick test_chain_codec;
        Alcotest.test_case "chain verification" `Quick test_chain_verify;
        Alcotest.test_case "chain default identity" `Quick
          test_chain_default_identity;
        Alcotest.test_case "record protection" `Quick test_record_protection;
        Alcotest.test_case "null records" `Quick test_null_records;
        Alcotest.test_case "key schedule" `Quick test_key_schedule;
        Alcotest.test_case "key schedule vectors" `Quick test_key_schedule_vectors;
        Alcotest.test_case "no-PSK regression" `Quick test_no_psk_regression;
        Alcotest.test_case "PSK client hello" `Quick test_psk_client_hello;
        Alcotest.test_case "binder MAC" `Quick test_binder_mac;
        Alcotest.test_case "session ticket codec" `Quick test_ticket_roundtrip;
        Alcotest.test_case "codec reassembly" `Quick test_codec_inbound;
        Alcotest.test_case "resumption omits certificate" `Quick
          test_resumption_omits_certificate;
        Alcotest.test_case "resumption mocked == real" `Slow
          test_resumption_mocked_equals_real;
        Alcotest.test_case "0-RTT early data" `Quick test_zero_rtt;
        Alcotest.test_case "binder mismatch fails closed" `Quick
          test_binder_mismatch_fails_closed;
        Alcotest.test_case "truncated key share fails closed" `Quick
          test_truncated_key_share_fails_closed;
        Alcotest.test_case "handshakes complete for all algorithms" `Slow
          test_handshake_completes_everywhere;
        Alcotest.test_case "real-crypto handshakes" `Slow test_real_handshakes;
        Alcotest.test_case "mocked == real invariant" `Slow test_mocked_equals_real;
        Alcotest.test_case "chain-profile handshakes" `Quick test_chain_handshakes;
        Alcotest.test_case "chain mocked == real" `Slow
          test_chain_mocked_equals_real;
        Alcotest.test_case "buffering modes" `Quick test_buffering_modes;
        Alcotest.test_case "sizes scale with algorithms" `Quick
          test_handshake_sizes_scale ] ) ]
