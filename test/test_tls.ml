(* TLS 1.3: wire codecs, record protection, key schedule invariants, and
   full simulated handshakes with both real and mocked crypto. *)

let kem name = Pqc.Registry.find_kem name
let sa name = Pqc.Registry.find_sig name

(* ---- wire ------------------------------------------------------------------ *)

let test_wire_vectors () =
  let cat = String.concat "" in
  Alcotest.(check string) "vec8" "\x03abc" (cat (Tls.Wire.vec8 [ "abc" ]));
  Alcotest.(check string) "vec16" "\x00\x03abc"
    (cat (Tls.Wire.vec16 [ "a"; "bc" ]));
  Alcotest.(check string) "vec24" "\x00\x00\x03abc"
    (cat (Tls.Wire.vec24 [ "abc" ]));
  Alcotest.(check string) "nested vectors" "\x00\x05\x03abcd"
    (cat (Tls.Wire.vec16 (Tls.Wire.vec8 [ "abc" ] @ [ "d" ])));
  Alcotest.check_raises "vec8 overflow" (Tls.Wire.Decode_error "vec8 overflow")
    (fun () -> ignore (Tls.Wire.vec8 [ String.make 256 'x' ]));
  let r = Tls.Wire.record Tls.Wire.Content_type.Handshake "hi" in
  Alcotest.(check string) "record header" "\x16\x03\x03\x00\x02hi" r;
  let m = Tls.Wire.handshake Tls.Wire.Handshake_type.Finished [ "ma"; "c!" ] in
  Alcotest.(check string) "handshake header" "\x14\x00\x00\x04mac!" m

let test_reader () =
  let r = Tls.Wire.Reader.of_string "\x01\x00\x02\x03abc" in
  Alcotest.(check int) "u8" 1 (Tls.Wire.Reader.u8 r);
  Alcotest.(check int) "u16" 2 (Tls.Wire.Reader.u16 r);
  Alcotest.(check string) "vec8" "abc" (Tls.Wire.Reader.vec8 r);
  Tls.Wire.Reader.expect_end r;
  Alcotest.check_raises "short read" (Tls.Wire.Decode_error "short read: want 4 have 0")
    (fun () -> ignore (Tls.Wire.Reader.bytes r 4));
  (* a sub-cursor reads one vector's body in place and ends with it *)
  let r = Tls.Wire.Reader.of_string "\x00\x06\x01\x02\x03\xff\xff\x00!!" in
  let v = Tls.Wire.Reader.sub16 r in
  Alcotest.(check int) "u24" 0x010203 (Tls.Wire.Reader.u24 v);
  Alcotest.check_raises "sub-cursor ends at its vector"
    (Tls.Wire.Decode_error "short read: want 4 have 3") (fun () ->
      ignore (Tls.Wire.Reader.u32 v));
  Alcotest.(check int) "u24 unsigned" 0xffff00 (Tls.Wire.Reader.u24 v);
  Tls.Wire.Reader.expect_end v;
  Alcotest.(check string) "outer cursor moved past the vector" "!!"
    (Tls.Wire.Reader.bytes r 2);
  Alcotest.(check int) "u32 unsigned" 0xffffff00
    (Tls.Wire.Reader.u32 (Tls.Wire.Reader.of_string "\xff\xff\xff\x00"))

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

(* [msg]'s type byte, a 24-bit length [len], then [body] *)
let frame msg ~len body =
  String.concat ""
    [ String.sub msg 0 1; String.sub (Crypto.Bytesx.u32_be len) 1 3; body ]

let test_server_hello_roundtrip () =
  let rng = Crypto.Drbg.create ~seed:"tls-sh" in
  let sh =
    { Tls.Messages.sh_random = Crypto.Drbg.generate rng 32;
      sh_session_id = Crypto.Drbg.generate rng 32;
      sh_group = "kyber768";
      sh_key_share = Crypto.Drbg.generate rng 1088;
      sh_psk_selected = false }
  in
  let enc = Tls.Messages.encode_server_hello sh in
  Alcotest.(check bool) "roundtrip" true (Tls.Messages.decode_server_hello enc = sh);
  (* the header's 24-bit length must be the body's *)
  let n = String.length enc - 4 in
  let with_length len = frame enc ~len (String.sub enc 4 n) in
  Alcotest.check_raises "header longer than the body"
    (Tls.Wire.Decode_error (Printf.sprintf "short read: want %d have %d" (n + 1) n))
    (fun () -> ignore (Tls.Messages.decode_server_hello (with_length (n + 1))));
  Alcotest.check_raises "header shorter than the body"
    (Tls.Wire.Decode_error "trailing bytes") (fun () ->
      ignore (Tls.Messages.decode_server_hello (with_length (n - 1))))

(* A hand-built ClientHello carrying the given extensions in order. The
   decoder needs two of them: [hand_key_share] (a 32-byte share) and
   [hand_names] (the group and algorithm names). *)
let hand_extension ty body = Crypto.Bytesx.u16_be ty :: Tls.Wire.vec16 body

let hand_key_share =
  hand_extension 51
    (Tls.Wire.vec16
       (Crypto.Bytesx.u16_be 0x0199 :: Tls.Wire.vec16 [ String.make 32 'k' ]))

let hand_names =
  hand_extension 0xfd00 (Tls.Wire.vec8 [ "x25519" ] @ Tls.Wire.vec8 [ "rsa:2048" ])

let hand_hello exts =
  Tls.Wire.handshake Tls.Wire.Handshake_type.Client_hello
    ("\x03\x03" :: String.make 32 'r' :: Tls.Wire.vec8 []
    @ Tls.Wire.vec16 [ "\x13\x01" ]
    @ Tls.Wire.vec8 [ "\x00" ]
    @ Tls.Wire.vec16 (List.concat exts))

let test_repeated_extension () =
  (* RFC 8446 section 4.2: there MUST NOT be more than one extension of
     the same type in a block. A hand-built ClientHello carrying two
     key_share extensions is a decode error; without the repeat, the
     same block decodes. *)
  let ch = Tls.Messages.decode_client_hello (hand_hello [ hand_key_share; hand_names ]) in
  Alcotest.(check string) "single key_share decodes" (String.make 32 'k')
    ch.Tls.Messages.key_share;
  Alcotest.check_raises "repeated key_share rejected"
    (Tls.Wire.Decode_error "repeated extension 51") (fun () ->
      ignore
        (Tls.Messages.decode_client_hello
           (hand_hello [ hand_key_share; hand_names; hand_key_share ])))

let test_certificate_roundtrip () =
  let chain, _ =
    Tls.Chain.make Tls.Chain_profile.default ~leaf:(sa "dilithium2")
      (Crypto.Drbg.create ~seed:"cert")
  in
  Alcotest.(check bool) "chain verifies" true (Tls.Chain.verify chain);
  let certs = Tls.Chain.wire_certs chain in
  let dec =
    Tls.Messages.decode_certificate_chain
      (Tls.Messages.encode_certificate_chain certs)
  in
  Alcotest.(check bool) "certificate roundtrip" true (dec = certs);
  (* a tampered TBS must fail chain verification *)
  let leaf = Tls.Chain.leaf chain in
  Alcotest.(check bool) "tampered subject" false
    (Tls.Chain.verify_against ~local:chain
       [ { leaf with Tls.Certificate.subject = "evil" } ])

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
  (* the level accounting matches what actually gets encoded: the
     message minus its 4-byte header, the empty request context and the
     list's 3-byte length *)
  Alcotest.(check int) "wire_bytes matches encoded entries"
    (String.length enc - 4 - 1 - 3)
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

(* The client's check of a Certificate message: on the credentials' own
   bytes it gives the verdict that decoding and walking them gives; on
   any other bytes it decodes and walks them, so a tampered chain or
   another credential's chain fails and a malformed message raises
   before any verification. *)
let test_credentials_check () =
  let flip_last s =
    let n = String.length s in
    String.mapi (fun i c -> if i = n - 1 then Char.chr (Char.code c lxor 1) else c) s
  in
  let algs = List.map Pqc.Sigalg.mocked Pqc.Registry.sigs in
  List.iter
    (fun profile ->
      let creds = List.map (Tls.Credentials.get ~profile) algs in
      List.iteri
        (fun i (c : Tls.Credentials.t) ->
          let name =
            Printf.sprintf "%s %s" c.Tls.Credentials.alg.Pqc.Sigalg.name
              profile.Tls.Chain_profile.name
          in
          let local = c.Tls.Credentials.chain in
          let msg = c.Tls.Credentials.certificate in
          let certs, verdict = Tls.Credentials.check c msg in
          let decoded = Tls.Messages.decode_certificate_chain msg in
          Alcotest.(check bool) (name ^ ": own certificates") true
            (certs = decoded);
          Alcotest.(check bool) (name ^ ": verdict of decode and walk")
            (Tls.Chain.verify_against ~local decoded) (verdict ());
          Alcotest.(check bool) (name ^ ": own chain verifies") true
            (verdict ());
          let rejected what received =
            let msg' = Tls.Messages.encode_certificate_chain received in
            let _, verdict = Tls.Credentials.check c msg' in
            Alcotest.(check bool) (name ^ ": " ^ what ^ " rejected") false
              (verdict ())
          in
          List.iteri
            (fun level _ ->
              let tamper what f =
                rejected
                  (Printf.sprintf "level %d %s flipped" level what)
                  (List.mapi (fun j x -> if j = level then f x else x) decoded)
              in
              tamper "signature" (fun x ->
                  { x with Tls.Certificate.signature = flip_last x.Tls.Certificate.signature });
              tamper "public key" (fun x ->
                  { x with Tls.Certificate.public_key = flip_last x.Tls.Certificate.public_key });
              tamper "subject" (fun x ->
                  { x with Tls.Certificate.subject = flip_last x.Tls.Certificate.subject }))
            decoded;
          let other = List.nth creds ((i + 1) mod List.length creds) in
          let _, verdict =
            Tls.Credentials.check c other.Tls.Credentials.certificate
          in
          Alcotest.(check bool) (name ^ ": another credential's chain") false
            (verdict ());
          match
            Tls.Credentials.check c (String.sub msg 0 (String.length msg - 1))
          with
          | exception Tls.Wire.Decode_error _ -> ()
          | _ -> Alcotest.failf "%s: a truncated message decoded" name)
        creds)
    Tls.Chain_profile.all

let test_chain_default_identity () =
  (* the default profile is a lone CA over the leaf, drawn as CA keygen,
     server keygen, one signature: the same leaf, anchor and server
     keypair as the leaf-only builder it replaced, pinned by MD5 *)
  let chain, kp =
    Tls.Chain.make Tls.Chain_profile.default ~leaf:(sa "dilithium2")
      (Crypto.Drbg.create ~seed:"cert")
  in
  let md5 s = Digest.to_hex (Digest.string s) in
  let leaf = Tls.Chain.leaf chain in
  Alcotest.(check string) "leaf encoding" "5860e2228686f8c6d6950a57a041e55b"
    (md5 (String.concat "" (Tls.Certificate.encode_parts leaf)));
  Alcotest.(check string) "CA public key" "02b4467a0933388ac305eeb11035b48d"
    (md5 chain.Tls.Chain.anchor_key);
  Alcotest.(check string) "server public key"
    "04b9dd4e59580bf352ccf6c5bdc535e3" (md5 kp.Pqc.Sigalg.public);
  Alcotest.(check string) "server secret key"
    "06a4c4bc718ef72fdd5f275f1c7685a9" (md5 kp.Pqc.Sigalg.secret);
  Alcotest.(check string) "lone CA name" "ca.pqtls.example"
    leaf.Tls.Certificate.issuer;
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
  let r = Tls.Wire.Reader.of_string msg in
  ignore (Tls.Wire.Reader.bytes r 4) (* handshake header *);
  ignore (Tls.Wire.Reader.u16 r) (* legacy_version *);
  ignore (Tls.Wire.Reader.bytes r 32) (* random *);
  ignore (Tls.Wire.Reader.sub8 r) (* session_id *);
  ignore (Tls.Wire.Reader.sub16 r) (* cipher_suites *);
  ignore (Tls.Wire.Reader.sub8 r) (* compression *);
  let er = Tls.Wire.Reader.sub16 r in
  let rec loop acc =
    if Tls.Wire.Reader.remaining er = 0 then List.rev acc
    else begin
      let ty = Tls.Wire.Reader.u16 er in
      ignore (Tls.Wire.Reader.sub16 er);
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
  Alcotest.(check (list int)) "extension order"
    [ 0; 43; 10; 13; 51; 45; 23; 22; 28; 0xfd00; 42; 41 ] tys;
  Alcotest.(check bool) "psk last" true (List.nth tys (List.length tys - 1) = 41);
  Alcotest.(check bool) "session_ticket stub dropped" false (List.mem 35 tys);
  Alcotest.(check bool) "early_data offered" true (List.mem 42 tys);
  (* the full handshake keeps the stub and never offers a PSK *)
  let full_tys =
    extension_types
      (Tls.Messages.encode_client_hello
         { ch with Tls.Messages.psk_offer = None; early_data = false })
  in
  Alcotest.(check (list int)) "full handshake extension order"
    [ 0; 43; 10; 13; 51; 45; 35; 23; 22; 28; 0xfd00 ] full_tys;
  Alcotest.(check bool) "stub on full handshake" true (List.mem 35 full_tys);
  Alcotest.(check bool) "no psk on full handshake" false (List.mem 41 full_tys);
  (* codec roundtrip preserves the offer *)
  let dec = Tls.Messages.decode_client_hello enc in
  Alcotest.(check bool) "offer roundtrip" true (dec.Tls.Messages.psk_offer = ch.Tls.Messages.psk_offer);
  Alcotest.(check bool) "early_data roundtrip" true dec.Tls.Messages.early_data;
  (* truncation removes exactly the binders list from the end, and
     closing with the same binder restores the message *)
  let truncated = Tls.Messages.truncated_client_hello enc in
  Alcotest.(check int) "truncation length" (String.length enc - Tls.Messages.binders_length)
    (String.length truncated);
  Alcotest.(check string) "close restores the message" enc
    (Tls.Messages.close_client_hello truncated (String.make 32 '\000'));
  (* the receiver enforces section 4.2.11: a pre_shared_key followed by
     another extension is a decode error *)
  let psk =
    hand_extension 41
      (Tls.Wire.vec16 (Tls.Wire.vec16 [ "ticket" ] @ [ "\x00\x00\x00\x00" ])
      @ Tls.Wire.vec16 (Tls.Wire.vec8 [ String.make 32 'b' ]))
  in
  Alcotest.(check bool) "pre_shared_key last decodes" true
    ((Tls.Messages.decode_client_hello
        (hand_hello [ hand_key_share; hand_names; psk ]))
       .Tls.Messages.psk_offer
    <> None);
  Alcotest.check_raises "pre_shared_key before another extension"
    (Tls.Wire.Decode_error "pre_shared_key is not the last extension")
    (fun () ->
      ignore
        (Tls.Messages.decode_client_hello
           (hand_hello [ hand_key_share; psk; hand_names ])))

let test_binder_mac () =
  let rng = Crypto.Drbg.create ~seed:"tls-binder" in
  let psk = Crypto.Drbg.generate rng 32 in
  let binder_of psk msg =
    let memo = Crypto.Memo.create () in
    let early = Tls.Key_schedule.early_secret ~memo ~psk () in
    Tls.Key_schedule.binder_mac ~memo
      ~binder_key:(Tls.Key_schedule.binder_key ~memo ~early_secret:early)
      ~truncated_transcript_hash:
        (Crypto.Sha256.digest (Tls.Messages.truncated_client_hello msg))
  in
  (* the truncated transcript is independent of the binder value, so the
     placeholder-binder encoding computes the same MAC the final CH
     carries, and closing it gives the encoding with the real binder *)
  let offer = make_offer rng () in
  let dummy = Tls.Messages.encode_client_hello offer in
  let mac = binder_of psk dummy in
  let final =
    Tls.Messages.close_client_hello (Tls.Messages.truncated_client_hello dummy) mac
  in
  Alcotest.(check bool) "binder independent of binder bytes" true
    (Tls.Messages.truncated_client_hello final
    = Tls.Messages.truncated_client_hello dummy);
  Alcotest.(check string) "closed == encoded with the binder"
    (Tls.Messages.encode_client_hello
       { offer with
         Tls.Messages.psk_offer =
           Option.map
             (fun o -> { o with Tls.Messages.psk_binder = mac })
             offer.Tls.Messages.psk_offer })
    final;
  (* negatives: a different PSK, or a different truncated transcript,
     must move the MAC *)
  Alcotest.(check bool) "wrong PSK detected" true
    (binder_of (Crypto.Drbg.generate rng 32) dummy <> mac);
  let other_ch =
    Tls.Messages.encode_client_hello
      (make_offer (Crypto.Drbg.create ~seed:"tls-binder-3") ())
  in
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

(* ---- wire pins --------------------------------------------------------------- *)

(* Every flow the handshake state machines speak, run mocked on the
   ideal link from fixed seeds and pinned to constants: the MD5 of the
   pcap export (every byte and timestamp on the wire), the TLS message
   marks in capture order, and per handshake the client and server
   finished times as exact hex floats plus the 0-RTT bytes accepted.
   No bench/perf workload runs a resumption mix, so these are the only
   byte-level pins on psk_dhe_ke, 0-RTT and NewSessionTicket. With
   [?resume] a full handshake issues a ticket and a resumed one follows:
   [`Psk] resumes without 0-RTT or a new ticket (the farm's shape),
   [`Psk_0rtt] sends early data and takes a new ticket (the mixes'). *)
let flow_results ?(buffering = Tls.Config.Optimized_push) ?(wrong_share = false)
    ?chain_profile ?resume kem_name sig_name =
  let engine = Netsim.Engine.create () in
  let tap = Netsim.Tap.create () in
  let rng = Crypto.Drbg.create ~seed:"tls-wire" in
  let link =
    Netsim.Link.create engine (Crypto.Drbg.fork rng "link") Netsim.Link.ideal
      ~tap:(Netsim.Tap.tap tap)
  in
  let client_host = Netsim.Host.create engine ~name:"client" in
  let server_host = Netsim.Host.create engine ~name:"server" in
  let config =
    Tls.Config.mocked ~buffering ~wrong_first_key_share:wrong_share
      ?chain_profile (kem kem_name) (sa sig_name)
  in
  let results = ref [] and session = ref None in
  let handshake ?resume ?early_data ~issue_ticket rng =
    Tls.Handshake.run ?resume ?early_data ~issue_ticket
      ~on_ticket:(fun s -> session := Some s)
      ~engine ~link ~tcp_config:Netsim.Tcp.default_config ~client_host
      ~server_host ~config ~rng
      ~on_done:(fun r -> results := r :: !results)
      ();
    Netsim.Engine.run engine
  in
  (match resume with
  | None -> handshake ~issue_ticket:false rng
  | Some mode ->
    handshake ~issue_ticket:true rng;
    let s =
      match !session with Some s -> s | None -> Alcotest.fail "no ticket issued"
    in
    let early = mode = `Psk_0rtt in
    handshake ~resume:s ~early_data:early ~issue_ticket:early
      (Crypto.Drbg.fork rng "resumed"));
  (Netsim.Tap.entries tap, List.rev !results)

let wire_flow ?buffering ?wrong_share ?chain_profile ?resume kem_name sig_name =
  let entries, results =
    flow_results ?buffering ?wrong_share ?chain_profile ?resume kem_name
      sig_name
  in
  ( Digest.to_hex (Digest.string (Netsim.Pcap.of_entries entries)),
    String.concat " "
      (List.concat_map
         (fun e -> List.map snd e.Netsim.Tap.packet.Netsim.Packet.marks)
         entries),
    String.concat "; "
      (List.map
         (fun r ->
           Printf.sprintf "%h %h %d" r.Tls.Handshake.client_finished_at
             r.Tls.Handshake.server_finished_at r.Tls.Handshake.early_data_bytes)
         results) )

let wire_pins =
  let kyber_dilithium ?buffering ?wrong_share ?chain_profile ?resume () =
    wire_flow ?buffering ?wrong_share ?chain_profile ?resume "kyber768"
      "dilithium3"
  in
  [ ( "optimized push",
      (fun () -> kyber_dilithium ()),
      ( "ce22d67c421afe9bed03ae173f122651",
        "CH SH EE CERT CV FIN FIN_C",
        "0x1.6b709689fd6bcp-10 0x1.68955eaf3476bp-10 0" ) );
    ( "default buffering",
      (fun () ->
        wire_flow ~buffering:Tls.Config.Default_buffered "kyber512"
          "sphincs128"),
      ( "a69310af89a8e6e74e3ac0974402acd3",
        "CH SH EE CERT CV FIN FIN_C",
        "0x1.e8584f9496396p-7 0x1.e7fce8993d1acp-7 0" ) );
    ( "hello retry",
      (fun () -> kyber_dilithium ~wrong_share:true ()),
      ( "3366d0bed48323221bebcde65038ead4",
        "CH HRR CH2 SH EE CERT CV FIN FIN_C",
        "0x1.b642e84a104b2p-10 0x1.b367b06f47561p-10 0" ) );
    ( "ticket then resumption",
      (fun () -> kyber_dilithium ~resume:`Psk ()),
      ( "770476156de57ca00a5f2c3b197fd6b4",
        "CH SH EE CERT CV FIN FIN_C NST CH SH EE FIN FIN_C",
        "0x1.7afd29ea67c5bp-10 0x1.68955eaf3476bp-10 0; \
         0x1.19e1b4672fa1cp+0 0x1.19e0fd9938ef7p+0 0" ) );
    ( "resumption with 0-RTT",
      (fun () -> kyber_dilithium ~resume:`Psk_0rtt ()),
      ( "fa964b18e21d444780267efd937cd071",
        "CH SH EE CERT CV FIN FIN_C NST CH 0RTT SH EE FIN FIN_C NST",
        "0x1.7afd29ea67c5bp-10 0x1.68955eaf3476bp-10 0; \
         0x1.19e6c5e2c6e07p+0 0x1.19e22beff813bp+0 256" ) );
    ( "mixed-acme chain",
      (fun () ->
        kyber_dilithium ~chain_profile:(Tls.Chain_profile.find "mixed-acme")
          ()),
      ( "58f18730b8ebbf243fe8c4e9f4992290",
        "CH SH EE CERT CV FIN FIN_C",
        "0x1.83decfe23399dp-9 0x1.827133f4cf1f4p-9 0" ) ) ]

let test_wire_pins () =
  List.iter
    (fun (name, run, (md5, marks, finished)) ->
      let md5', marks', finished' = run () in
      Alcotest.(check string) (name ^ ": pcap md5") md5 md5';
      Alcotest.(check string) (name ^ ": marks") marks marks';
      Alcotest.(check string) (name ^ ": finished") finished finished')
    wire_pins

(* What each flow leaves in its connection memo: a value one side put
   and the other never took. Every handshake leaves the client's server
   application traffic secret unless a ticket makes the server derive
   it too; the resumed handshakes take the binder and early-traffic
   derivations the client put. *)
let test_memo_left () =
  List.iter
    (fun (name, run, expected) ->
      Alcotest.(check (list int)) name expected
        (List.map (fun r -> r.Tls.Handshake.memo_left) (snd (run ()))))
    [ ("full", (fun () -> flow_results "kyber768" "dilithium3"), [ 1 ]);
      ( "hello retry",
        (fun () -> flow_results ~wrong_share:true "kyber768" "dilithium3"),
        [ 1 ] );
      ( "ticket then resumption",
        (fun () -> flow_results ~resume:`Psk "kyber768" "dilithium3"),
        [ 0; 1 ] );
      ( "resumption with 0-RTT",
        (fun () -> flow_results ~resume:`Psk_0rtt "kyber768" "dilithium3"),
        [ 0; 0 ] ) ]

let test_codec_inbound () =
  (* records split across arbitrary TCP chunk boundaries *)
  let msgs =
    [ Tls.Wire.handshake Tls.Wire.Handshake_type.Finished [ String.make 40 'a' ];
      Tls.Wire.handshake Tls.Wire.Handshake_type.Finished
        [ String.make 20000 'b' ] ]
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

(* ---- shared transcript --------------------------------------------------- *)

(* The two endpoint transcripts of one connection absorb the same
   random messages (0-70 kB) in a random order per message, and one
   side may see one byte flipped. After every add each side's hash must
   be that of an unshared transcript fed the same bytes. *)
let shared_transcript_case =
  let open QCheck.Gen in
  let message = pair (oneof [ int_range 0 300; int_range 0 70_000 ]) bool in
  QCheck.make
    ~print:(fun (seed, msgs, flip) ->
      Printf.sprintf "seed %d, sizes [%s], flip %s" seed
        (String.concat "; " (List.map (fun (n, _) -> string_of_int n) msgs))
        (match flip with
        | None -> "none"
        | Some (i, pos, a) ->
          Printf.sprintf "msg %d byte %d on %s" i pos (if a then "A" else "B")))
    (triple int (list_size (int_range 1 8) message)
       (opt (triple (int_bound 7) nat bool)))

let shared_transcript_prop (seed, msgs, flip) =
  let rng = Random.State.make [| seed |] in
  let a, b = Tls.Transcript.create_pair () in
  let ra = Tls.Transcript.create () and rb = Tls.Transcript.create () in
  let step t reference msg =
    Tls.Transcript.add t msg;
    Tls.Transcript.add reference msg;
    Crypto.Bytesx.equal_ct (Tls.Transcript.current t)
      (Tls.Transcript.current reference)
  in
  List.for_all
    (fun (i, (size, a_first)) ->
      let msg = String.init size (fun _ -> Char.chr (Random.State.int rng 256)) in
      let flipped =
        match flip with
        | Some (j, pos, _) when j = i && size > 0 ->
          String.mapi
            (fun k c -> if k = pos mod size then Char.chr (Char.code c lxor 1) else c)
            msg
        | _ -> msg
      in
      let msg_a, msg_b =
        match flip with
        | Some (_, _, true) -> (flipped, msg)
        | _ -> (msg, flipped)
      in
      if a_first then step a ra msg_a && step b rb msg_b
      else step b rb msg_b && step a ra msg_a)
    (List.mapi (fun i m -> (i, m)) msgs)

(* ---- decoders: round trip and fail closed -------------------------------- *)

(* Random handshake messages of every kind the codecs speak. *)
type wire_message =
  | Ch of Tls.Messages.client_hello
  | Sh of Tls.Messages.server_hello
  | Ee of bool
  | Nst of Tls.Messages.new_session_ticket
  | Cv of Tls.Messages.certificate_verify
  | Cert of Tls.Certificate.t list
  | Fin of string

let encode_message = function
  | Ch ch -> Tls.Messages.encode_client_hello ch
  | Sh sh -> Tls.Messages.encode_server_hello sh
  | Ee early_data_accepted ->
    Tls.Messages.encode_encrypted_extensions ~early_data_accepted ()
  | Nst nst -> Tls.Messages.encode_new_session_ticket nst
  | Cv cv -> Tls.Messages.encode_certificate_verify cv
  | Cert certs -> Tls.Messages.encode_certificate_chain certs
  | Fin mac -> Tls.Messages.encode_finished mac

let message_kind = function
  | Ch _ -> "CH"
  | Sh _ -> "SH"
  | Ee _ -> "EE"
  | Nst _ -> "NST"
  | Cv _ -> "CV"
  | Cert _ -> "CERT"
  | Fin _ -> "FIN"

(* every decoder, by the kind it decodes *)
let decoders =
  [ ("CH", fun s -> Ch (Tls.Messages.decode_client_hello s));
    ("SH", fun s -> Sh (Tls.Messages.decode_server_hello s));
    ("EE", fun s -> Ee (Tls.Messages.ee_early_data_accepted s));
    ("NST", fun s -> Nst (Tls.Messages.decode_new_session_ticket s));
    ("CV", fun s -> Cv (Tls.Messages.decode_certificate_verify s));
    ("CERT", fun s -> Cert (Tls.Messages.decode_certificate_chain s));
    ("FIN", fun s -> Fin (Tls.Messages.decode_finished s)) ]

let message_gen =
  let open QCheck.Gen in
  let bytes size st =
    String.init (size st) (fun _ -> Char.chr (Random.State.int st 256))
  in
  let name = string_size ~gen:(char_range 'a' 'z') (int_range 1 12) in
  (* half the large fields are small, so that framing is a large share
     of the message *)
  let up_to n = oneof [ int_range 0 64; int_range 0 n ] in
  let u32 = int_range 0 0xffff_ffff in
  let client_hello =
    let* random = bytes (return 32) in
    let* session_id = bytes (int_range 0 32) in
    let* group = name in
    let* key_share = bytes (up_to 20_000) in
    let* sig_algs = list_size (int_range 1 4) name in
    let* psk_offer =
      opt
        (let* psk_identity = bytes (int_range 0 200) in
         let* psk_obfuscated_age = u32 in
         let* psk_binder = bytes (return 32) in
         return { Tls.Messages.psk_identity; psk_obfuscated_age; psk_binder })
    in
    let* early_data = bool in
    return
      (Ch
         { Tls.Messages.random; session_id; group; key_share; sig_algs;
           psk_offer; early_data })
  in
  let server_hello =
    let* sh_random = bytes (return 32) in
    let* sh_session_id = bytes (int_range 0 32) in
    let* sh_group = name in
    let* sh_key_share = bytes (up_to 20_000) in
    let* sh_psk_selected = bool in
    return
      (Sh
         { Tls.Messages.sh_random; sh_session_id; sh_group; sh_key_share;
           sh_psk_selected })
  in
  let ticket =
    let* nst_lifetime = u32 in
    let* nst_age_add = u32 in
    let* nst_nonce = bytes (int_range 0 8) in
    let* nst_ticket = bytes (int_range 0 300) in
    let* nst_max_early_data = oneof [ return 0; u32 ] in
    return
      (Nst
         { Tls.Messages.nst_lifetime; nst_age_add; nst_nonce; nst_ticket;
           nst_max_early_data })
  in
  let verify =
    let* cv_algorithm = name in
    let* cv_signature = bytes (up_to 8_000) in
    return (Cv { Tls.Messages.cv_algorithm; cv_signature })
  in
  let certificate =
    let* subject = name in
    let* issuer = name in
    let* algorithm = name in
    let* public_key = bytes (up_to 2_000) in
    let* tbs_extra = bytes (int_range 0 10) in
    let* signature = bytes (up_to 4_000) in
    return
      { Tls.Certificate.subject; issuer; algorithm; public_key; tbs_extra;
        signature }
  in
  oneof
    [ client_hello; server_hello; map (fun b -> Ee b) bool; ticket; verify;
      map (fun cs -> Cert cs) (list_size (int_range 1 3) certificate);
      map (fun mac -> Fin mac) (bytes (return 32)) ]

let print_message m =
  Printf.sprintf "%s message of %d bytes" (message_kind m)
    (String.length (encode_message m))

let codec_roundtrip_prop m =
  List.assoc (message_kind m) decoders (encode_message m) = m

(* A message cut at random points, as sent and with its header's length
   rewritten to the cut body's so the cut reaches the body's decoder, and
   with one byte XOR-flipped at random points: whatever the bytes, every
   decoder returns or raises [Wire.Decode_error], never another
   exception. *)
let fail_closed_case =
  let open QCheck.Gen in
  QCheck.make
    ~print:(fun (m, cuts, flips) ->
      Printf.sprintf "%s, cuts [%s], flips [%s]" (print_message m)
        (String.concat "; " (List.map string_of_int cuts))
        (String.concat "; "
           (List.map (fun (at, mask) -> Printf.sprintf "%d xor %d" at mask) flips)))
    (triple message_gen (list_repeat 4 nat)
       (list_repeat 16 (pair nat (int_range 1 255))))

let fail_closed_prop (m, cuts, flips) =
  let msg = encode_message m in
  let n = String.length msg in
  let cut c =
    let body = String.sub msg 4 (c mod (n - 3)) in
    [ String.sub msg 0 (c mod n); frame msg ~len:(String.length body) body ]
  in
  let flip (at, mask) =
    String.mapi
      (fun i c -> if i = at mod n then Char.chr (Char.code c lxor mask) else c)
      msg
  in
  List.for_all
    (fun bytes ->
      List.for_all
        (fun (_, decode) ->
          match decode bytes with
          | _ -> true
          | exception Tls.Wire.Decode_error _ -> true)
        decoders)
    (List.concat_map cut cuts @ List.map flip flips)

(* ---- byte-path allocation --------------------------------------------------- *)

(* Bytes [f ()] allocates on this domain, minor and major heap, net of
   what the measurement itself allocates. Native counters only advance
   at collection boundaries, so the minor heap is flushed around it. *)
let allocated f =
  let words () =
    Gc.minor ();
    let s = Gc.quick_stat () in
    s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words
  in
  let measure f =
    let w0 = words () in
    let r = f () in
    (r, words () -. w0)
  in
  let (), overhead = measure (fun () -> ()) in
  let r, w = measure f in
  (r, int_of_float (w -. overhead) * (Sys.word_size / 8))

let test_byte_path_allocation () =
  let creds = Tls.Credentials.get (Pqc.Sigalg.mocked (sa "sphincs256")) in
  let certs = Tls.Chain.wire_certs creds.Tls.Credentials.chain in
  let check_limit name ~limit ~of_ bytes =
    if bytes > limit then
      Alcotest.failf "%s: %d bytes allocated for %s (limit %d)" name bytes of_
        limit
  in
  let within name (out, bytes) =
    check_limit name ~limit:((2 * String.length out) + 1024)
      ~of_:(Printf.sprintf "a %d-byte output" (String.length out))
      bytes
  in
  let msg, _ as chain =
    allocated (fun () -> Tls.Messages.encode_certificate_chain certs)
  in
  Alcotest.(check int) "sphincs256 Certificate message" 49_998
    (String.length msg);
  within "encode_certificate_chain" chain;
  within "fragment_encrypted"
    (allocated (fun () ->
         Tls.Codec.fragment_encrypted (Tls.Record.create_null ()) msg));
  let t = Tls.Transcript.create () in
  Tls.Transcript.add t msg;
  let _, bytes = allocated (fun () -> Tls.Transcript.current t) in
  if bytes >= 64 * (Sys.word_size / 8) then
    Alcotest.failf "Transcript.current allocated %d bytes: a 64-word schedule"
      bytes;
  (* the hello codecs copy a key share a bounded number of times: an
     encoder about twice the message, a decoder about twice the share.
     The extensions every ClientHello shares are built once, so a small
     ClientHello encodes within a fixed number of words. *)
  List.iter
    (fun (kem_name, ch_encode_words) ->
      let k = Pqc.Kem.mocked (kem kem_name) in
      let rng = Crypto.Drbg.create ~seed:"tls-alloc" in
      let kp = k.Pqc.Kem.keygen rng in
      let ct, _ = k.Pqc.Kem.encaps rng kp.Pqc.Kem.public in
      let hello ?words name share encode decode =
        let msg, bytes = allocated encode in
        check_limit
          (Printf.sprintf "%s %s encode" kem_name name)
          ~limit:
            (match words with
            | Some w -> w * (Sys.word_size / 8)
            | None -> (2 * String.length msg) + 8192)
          ~of_:(Printf.sprintf "a %d-byte message" (String.length msg))
          bytes;
        let _, bytes = allocated (fun () -> decode msg) in
        check_limit
          (Printf.sprintf "%s %s decode" kem_name name)
          ~limit:((2 * String.length share) + 4096)
          ~of_:(Printf.sprintf "a %d-byte share" (String.length share))
          bytes
      in
      let ch =
        { Tls.Messages.random = Crypto.Drbg.generate rng 32;
          session_id = Crypto.Drbg.generate rng 32;
          group = kem_name;
          key_share = kp.Pqc.Kem.public;
          sig_algs = [ "dilithium3" ];
          psk_offer = None;
          early_data = false }
      and sh =
        { Tls.Messages.sh_random = Crypto.Drbg.generate rng 32;
          sh_session_id = Crypto.Drbg.generate rng 32;
          sh_group = kem_name;
          sh_key_share = ct;
          sh_psk_selected = false }
      in
      hello ?words:ch_encode_words "ClientHello" kp.Pqc.Kem.public
        (fun () -> Tls.Messages.encode_client_hello ch)
        Tls.Messages.decode_client_hello;
      hello "ServerHello" ct
        (fun () -> Tls.Messages.encode_server_hello sh)
        Tls.Messages.decode_server_hello)
    [ ("hqc256", None); ("kyber768", None); ("x25519", Some 640) ];
  (* a whole handshake copies each flight byte a fixed number of times,
     from the signer to the decoders, and the client takes the
     credentials' verdict on their own Certificate message without
     decoding it: the mocked x25519 x sphincs256 handshake on the ideal
     link (106 kB on the wire) allocates at most 7 bytes per wire byte.
     The first run fills the credentials and other caches. *)
  let handshake () = run_handshake ~real:false "x25519" "sphincs256" in
  ignore (handshake ());
  let r, bytes = allocated handshake in
  let wire = r.client_bytes + r.server_bytes in
  check_limit "x25519 x sphincs256 handshake" ~limit:(7 * wire)
    ~of_:(Printf.sprintf "%d wire bytes" wire)
    bytes

(* A peer cannot make the receiver allocate what a header announces: a
   record or handshake message over its cap fails closed before any
   buffer grows. *)
let test_codec_length_caps () =
  let fails inb =
    match Tls.Codec.Inbound.next inb with
    | exception Tls.Wire.Decode_error _ -> true
    | _ -> false
  in
  let fed bytes =
    let inb = Tls.Codec.Inbound.create () in
    Tls.Codec.Inbound.feed inb bytes;
    inb
  in
  (* one plaintext record whose Certificate header announces 0xffffff
     bytes *)
  let hostile =
    Tls.Wire.record Tls.Wire.Content_type.Handshake
      ("\x0b\xff\xff\xff" ^ String.make 100 'c')
  in
  Alcotest.(check int) "hostile record length" 109 (String.length hostile);
  let failed, bytes = allocated (fun () -> fails (fed hostile)) in
  Alcotest.(check bool) "oversized message fails closed" true failed;
  if bytes >= 4096 then
    Alcotest.failf "a 109-byte hostile record allocated %d bytes" bytes;
  let record_header n =
    Tls.Wire.record_header Tls.Wire.Content_type.Application_data n
  in
  let hs_header n =
    Tls.Wire.record Tls.Wire.Content_type.Handshake
      (String.sub
         (Tls.Wire.handshake Tls.Wire.Handshake_type.Certificate
            [ String.make n 'c' ])
         0 4)
  in
  let cap = Tls.Codec.max_record_body
  and hs_cap = Tls.Codec.max_handshake_body in
  Alcotest.(check bool) "a record at the cap waits for its body" false
    (fails (fed (record_header cap)));
  Alcotest.(check bool) "a record over the cap fails closed" true
    (fails (fed (record_header (cap + 1))));
  Alcotest.(check bool) "a message at the cap waits for its body" false
    (fails (fed (hs_header hs_cap)));
  Alcotest.(check bool) "a message over the cap fails closed" true
    (fails (fed (hs_header (hs_cap + 1))));
  (* every Certificate message a registry SA serves, in every chain
     profile, fits under the cap, so a larger algorithm fails here
     rather than in a campaign *)
  List.iter
    (fun profile ->
      List.iter
        (fun alg ->
          let c = Tls.Credentials.get ~profile (Pqc.Sigalg.mocked alg) in
          let body = String.length c.Tls.Credentials.certificate - 4 in
          if body > hs_cap then
            Alcotest.failf "%s %s: a %d-byte Certificate body over the cap"
              alg.Pqc.Sigalg.name profile.Tls.Chain_profile.name body)
        (Pqc.Registry.sigs @ Pqc.Registry.sphincs_variants))
    Tls.Chain_profile.all

let suites =
  [ ( "tls",
      [ Alcotest.test_case "wire vectors" `Quick test_wire_vectors;
        Alcotest.test_case "reader" `Quick test_reader;
        Alcotest.test_case "client hello codec" `Quick test_client_hello_roundtrip;
        Alcotest.test_case "server hello codec" `Quick test_server_hello_roundtrip;
        Alcotest.test_case "repeated extension rejected" `Quick
          test_repeated_extension;
        Alcotest.test_case "certificate chain" `Quick test_certificate_roundtrip;
        Alcotest.test_case "chain codec" `Quick test_chain_codec;
        Alcotest.test_case "chain verification" `Quick test_chain_verify;
        Alcotest.test_case "credential check" `Quick test_credentials_check;
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
          test_handshake_sizes_scale;
        Alcotest.test_case "handshake wire pins" `Quick test_wire_pins;
        Alcotest.test_case "connection memo left" `Quick test_memo_left;
        QCheck_alcotest.to_alcotest
          (QCheck.Test.make ~name:"shared transcript = unshared" ~count:100
             shared_transcript_case shared_transcript_prop);
        QCheck_alcotest.to_alcotest
          (QCheck.Test.make ~name:"codec round trip" ~count:200
             (QCheck.make ~print:print_message message_gen)
             codec_roundtrip_prop);
        QCheck_alcotest.to_alcotest
          (QCheck.Test.make ~name:"decoders fail closed" ~count:300
             fail_closed_case fail_closed_prop);
        Alcotest.test_case "byte path allocation" `Quick
          test_byte_path_allocation;
        Alcotest.test_case "codec length caps" `Quick
          test_codec_length_caps ] ) ]
