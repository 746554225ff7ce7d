(* Public-key primitives: X25519 (RFC 7748 vectors), NIST-curve
   ECDH/ECDSA, RSA. *)

open Crypto

let hex = Bytesx.of_hex

let test_x25519_vectors () =
  let check (scalar, point, want) =
    Alcotest.(check string) "rfc7748" want
      (Bytesx.to_hex (X25519.scalar_mult ~scalar:(hex scalar) ~point:(hex point)))
  in
  List.iter check
    [ ( "a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4",
        "e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c",
        "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552" );
      ( "4b66e9d4d1b4673c5ad22691957d6af5c11b6421e0ea01d42ca4169e7918ba0d",
        "e5210f12786811d3f4b7959d0538ae2c31dbe7106fc03c3efc4cd549c715a493",
        "95cbde9476e8907d7aade45cb4b873f88b595a68799fa152e6f8f7647aac7957" ) ]

let test_x25519_dh () =
  let rng = Drbg.create ~seed:"x25519" in
  for _ = 1 to 5 do
    let a = Drbg.generate rng 32 and bsec = Drbg.generate rng 32 in
    let pa = X25519.public_of_secret a and pb = X25519.public_of_secret bsec in
    Alcotest.(check string) "dh agreement"
      (Bytesx.to_hex (X25519.scalar_mult ~scalar:a ~point:pb))
      (Bytesx.to_hex (X25519.scalar_mult ~scalar:bsec ~point:pa))
  done

let curves = [ ("p256", Ec.p256); ("p384", Ec.p384); ("p521", Ec.p521) ]

let test_ec_group_laws () =
  List.iter
    (fun (name, c) ->
      let g = Ec.Affine (c.Ec.gx, c.Ec.gy) in
      Alcotest.(check bool) (name ^ " generator on curve") true (Ec.on_curve c g);
      (* n * G = infinity *)
      Alcotest.(check bool) (name ^ " order kills G") true
        (Ec.scalar_mult c c.Ec.n g = Ec.Infinity);
      (* 2G + G = 3G, computed two ways *)
      let two_g = Ec.double c g in
      Alcotest.(check bool) (name ^ " 2G on curve") true (Ec.on_curve c two_g);
      let three_a = Ec.add c two_g g in
      let three_b = Ec.base_mult c (Bignum.of_int 3) in
      Alcotest.(check bool) (name ^ " 2G+G = 3G") true (three_a = three_b);
      (* commutativity *)
      Alcotest.(check bool) (name ^ " add commutes") true
        (Ec.add c g two_g = Ec.add c two_g g);
      (* identity *)
      Alcotest.(check bool) (name ^ " G + inf = G") true
        (Ec.add c g Ec.Infinity = g))
    curves

let test_ecdh () =
  let rng = Drbg.create ~seed:"ecdh" in
  List.iter
    (fun (name, c) ->
      let d1, q1 = Ec.gen_keypair c rng in
      let d2, q2 = Ec.gen_keypair c rng in
      Alcotest.(check string) (name ^ " agreement")
        (Bytesx.to_hex (Ec.ecdh c d1 q2))
        (Bytesx.to_hex (Ec.ecdh c d2 q1));
      Alcotest.(check int) (name ^ " secret width") c.Ec.byte_size
        (String.length (Ec.ecdh c d1 q2));
      (* point codec *)
      let enc = Ec.encode_point c q1 in
      Alcotest.(check int) (name ^ " point size") (1 + (2 * c.Ec.byte_size))
        (String.length enc);
      Alcotest.(check bool) (name ^ " decode") true (Ec.decode_point c enc = Some q1);
      (* off-curve points are rejected *)
      let bad = Bytes.of_string enc in
      Bytes.set bad 5 (Char.chr (Char.code (Bytes.get bad 5) lxor 1));
      Alcotest.(check bool) (name ^ " off-curve rejected") true
        (Ec.decode_point c (Bytes.to_string bad) = None))
    curves

let test_ecdsa () =
  let rng = Drbg.create ~seed:"ecdsa" in
  List.iter
    (fun (name, c) ->
      let d, q = Ec.gen_keypair c rng in
      let digest = Sha256.digest "message" in
      let signature = Ec.ecdsa_sign c rng ~key:d ~digest in
      Alcotest.(check int) (name ^ " sig size") (2 * c.Ec.byte_size)
        (String.length signature);
      Alcotest.(check bool) (name ^ " verify") true
        (Ec.ecdsa_verify c ~pub:q ~digest signature);
      Alcotest.(check bool) (name ^ " wrong digest") false
        (Ec.ecdsa_verify c ~pub:q ~digest:(Sha256.digest "other") signature);
      let bad = Bytes.of_string signature in
      Bytes.set bad 3 (Char.chr (Char.code (Bytes.get bad 3) lxor 1));
      Alcotest.(check bool) (name ^ " corrupt sig") false
        (Ec.ecdsa_verify c ~pub:q ~digest (Bytes.to_string bad));
      let d2, q2 = Ec.gen_keypair c rng in
      ignore d2;
      Alcotest.(check bool) (name ^ " wrong key") false
        (Ec.ecdsa_verify c ~pub:q2 ~digest signature))
    curves

let test_rsa () =
  List.iter
    (fun bits ->
      let key = Rsa_keys.fixed_key bits in
      let msg = "post-quantum tls " ^ string_of_int bits in
      let signature = Rsa.sign_pkcs1_sha256 key msg in
      Alcotest.(check int) "sig = modulus size" (bits / 8) (String.length signature);
      Alcotest.(check bool) "verify" true
        (Rsa.verify_pkcs1_sha256 key.Rsa.pub ~msg signature);
      Alcotest.(check bool) "wrong msg" false
        (Rsa.verify_pkcs1_sha256 key.Rsa.pub ~msg:"x" signature);
      let bad = Bytes.of_string signature in
      Bytes.set bad 0 (Char.chr (Char.code (Bytes.get bad 0) lxor 1));
      Alcotest.(check bool) "corrupt" false
        (Rsa.verify_pkcs1_sha256 key.Rsa.pub ~msg (Bytes.to_string bad));
      (* pub codec *)
      let enc = Rsa.encode_pub key.Rsa.pub in
      match Rsa.decode_pub enc with
      | Some pub ->
        Alcotest.(check bool) "pub roundtrip" true
          (Bignum.equal pub.Rsa.n key.Rsa.pub.Rsa.n
          && Bignum.equal pub.Rsa.e key.Rsa.pub.Rsa.e)
      | None -> Alcotest.fail "pub decode")
    [ 1024; 2048 ]

(* the registry's RSA algorithms state their public-key size without
   building a key: the formula agrees with an encoded embedded key *)
let test_rsa_public_key_bytes () =
  List.iter
    (fun bits ->
      Alcotest.(check int)
        (Printf.sprintf "rsa:%d public key bytes" bits)
        (String.length (Rsa.encode_pub (Rsa_keys.fixed_key bits).Rsa.pub))
        (Pqc.Sigalg.rsa ~bits ~level:0).Pqc.Sigalg.public_key_bytes)
    [ 1024; 2048; 3072; 4096 ]

let test_rsa_keygen () =
  (* fresh keygen at a small size so the test stays fast *)
  let rng = Drbg.create ~seed:"rsa-keygen" in
  let key = Rsa.gen rng ~bits:512 in
  Alcotest.(check int) "modulus bits" 64 (Rsa.modulus_bytes key.Rsa.pub);
  let msg = "fresh key" in
  Alcotest.(check bool) "fresh key signs" true
    (Rsa.verify_pkcs1_sha256 key.Rsa.pub ~msg (Rsa.sign_pkcs1_sha256 key msg))

let qc name gen prop = QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count:20 gen prop)

let prop_tests =
  [ qc "x25519 ladder ignores high bit of u" QCheck.small_int (fun i ->
        let rng = Drbg.create ~seed:("hb" ^ string_of_int i) in
        let scalar = Drbg.generate rng 32 in
        let point = Drbg.generate rng 32 in
        let flipped =
          Bytes.of_string point |> fun b ->
          Bytes.set b 31 (Char.chr (Char.code (Bytes.get b 31) lxor 0x80));
          Bytes.to_string b
        in
        X25519.scalar_mult ~scalar ~point = X25519.scalar_mult ~scalar ~point:flipped);
    qc "ecdsa p256 roundtrip randomized" QCheck.small_string (fun m ->
        let rng = Drbg.create ~seed:"qc-ecdsa" in
        let d, q = Ec.gen_keypair Ec.p256 rng in
        let digest = Sha256.digest m in
        Ec.ecdsa_verify Ec.p256 ~pub:q ~digest
          (Ec.ecdsa_sign Ec.p256 rng ~key:d ~digest)) ]

let suites =
  [ ( "pubkey",
      [ Alcotest.test_case "x25519 rfc7748" `Quick test_x25519_vectors;
        Alcotest.test_case "x25519 dh" `Quick test_x25519_dh;
        Alcotest.test_case "ec group laws" `Quick test_ec_group_laws;
        Alcotest.test_case "ecdh all curves" `Quick test_ecdh;
        Alcotest.test_case "ecdsa all curves" `Quick test_ecdsa;
        Alcotest.test_case "rsa fixed keys" `Quick test_rsa;
        Alcotest.test_case "rsa public key size" `Quick
          test_rsa_public_key_bytes;
        Alcotest.test_case "rsa keygen" `Slow test_rsa_keygen ]
      @ prop_tests ) ]
