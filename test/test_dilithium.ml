(* ML-DSA / Dilithium: spec sizes, sign/verify, negatives, hint encoding
   edge cases, and fuzzed corruption of signatures, keys and messages. *)

open Pqc

let all_params =
  Dilithium.
    [ dilithium2; dilithium3; dilithium5; dilithium2_aes; dilithium3_aes;
      dilithium5_aes ]

let expected_sizes =
  [ ("dilithium2", 1312, 2528, 2420); ("dilithium3", 1952, 4000, 3293);
    ("dilithium5", 2592, 4864, 4595); ("dilithium2_aes", 1312, 2528, 2420);
    ("dilithium3_aes", 1952, 4000, 3293); ("dilithium5_aes", 2592, 4864, 4595) ]

let test_sizes () =
  List.iter
    (fun p ->
      let name = Dilithium.name p in
      let _, pk, sk, sg = List.find (fun (n, _, _, _) -> n = name) expected_sizes in
      Alcotest.(check int) (name ^ " pk") pk (Dilithium.public_key_bytes p);
      Alcotest.(check int) (name ^ " sk") sk (Dilithium.secret_key_bytes p);
      Alcotest.(check int) (name ^ " sig") sg (Dilithium.signature_bytes p))
    all_params

let test_sign_verify () =
  let rng = Crypto.Drbg.create ~seed:"dil-sv" in
  List.iter
    (fun p ->
      let name = Dilithium.name p in
      let pk, sk = Dilithium.keygen p rng in
      List.iter
        (fun msg ->
          let s = Dilithium.sign p sk msg in
          Alcotest.(check int) (name ^ " sig len") (Dilithium.signature_bytes p)
            (String.length s);
          Alcotest.(check bool) (name ^ " verifies") true
            (Dilithium.verify p pk ~msg s);
          Alcotest.(check bool) (name ^ " rejects other msg") false
            (Dilithium.verify p pk ~msg:(msg ^ "!") s))
        [ ""; "m"; String.make 10000 'x' ])
    all_params

let test_deterministic_signing () =
  let rng = Crypto.Drbg.create ~seed:"dil-det" in
  let p = Dilithium.dilithium2 in
  let _, sk = Dilithium.keygen p rng in
  Alcotest.(check string) "deterministic signature"
    (Crypto.Bytesx.to_hex (Dilithium.sign p sk "msg"))
    (Crypto.Bytesx.to_hex (Dilithium.sign p sk "msg"))

let test_wrong_key () =
  let rng = Crypto.Drbg.create ~seed:"dil-wrong" in
  let p = Dilithium.dilithium3 in
  let pk1, sk1 = Dilithium.keygen p rng in
  let pk2, _ = Dilithium.keygen p rng in
  ignore pk1;
  let s = Dilithium.sign p sk1 "msg" in
  Alcotest.(check bool) "other key rejects" false (Dilithium.verify p pk2 ~msg:"msg" s)

let test_malformed_inputs () =
  let rng = Crypto.Drbg.create ~seed:"dil-mal" in
  let p = Dilithium.dilithium2 in
  let pk, sk = Dilithium.keygen p rng in
  let s = Dilithium.sign p sk "msg" in
  Alcotest.(check bool) "short signature" false
    (Dilithium.verify p pk ~msg:"msg" (String.sub s 0 100));
  Alcotest.(check bool) "short pk" false
    (Dilithium.verify p (String.sub pk 0 64) ~msg:"msg" s);
  (* hint-region corruption must be rejected by the unpacker or verify *)
  let hint_off = Dilithium.signature_bytes p - 4 in
  let bad = Bytes.of_string s in
  Bytes.set bad hint_off '\xff';
  Alcotest.(check bool) "corrupt hint counts" false
    (Dilithium.verify p pk ~msg:"msg" (Bytes.to_string bad))

(* The AES-CTR variants from fixed seeds: MD5 of pk ^ sk and of the
   signature of "pins", recorded when the CTR keystream was regenerated
   from counter 0 on every read, so they pin the running-counter stream
   to the same bytes. *)
let test_aes_pins () =
  let md5 s = Digest.to_hex (Digest.string s) in
  List.iter
    (fun (p, keys, signature) ->
      let name = Dilithium.name p in
      let rng = Crypto.Drbg.create ~seed:("pins/" ^ name) in
      let pk, sk = Dilithium.keygen p rng in
      let s = Dilithium.sign p sk "pins" in
      Alcotest.(check (pair string string)) name (keys, signature)
        (md5 (pk ^ sk), md5 s);
      Alcotest.(check bool) (name ^ " verifies") true
        (Dilithium.verify p pk ~msg:"pins" s))
    [ ( Dilithium.dilithium2_aes, "e0279f8fb04c8a5cf773aa8acf90d1af",
        "2e5a8ad6bc2b61e70d1a22994da89334" );
      ( Dilithium.dilithium3_aes, "88523af138a9c3f6fd966fcd343fbd20",
        "090ebbb343d23363f1bbf36008236b04" );
      ( Dilithium.dilithium5_aes, "e88e76c638d71d369d1c69ccf880e694",
        "05edc58b834328c9afe84ff9bf914cda" ) ]

let qc name gen prop = QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count:15 gen prop)

let prop_tests =
  [ qc "any single-byte signature corruption is rejected"
      QCheck.(pair small_int small_int)
      (fun (pos_seed, delta) ->
        let p = Dilithium.dilithium2 in
        let rng = Crypto.Drbg.create ~seed:"dil-fuzz" in
        let pk, sk = Dilithium.keygen p rng in
        let s = Dilithium.sign p sk "fuzz" in
        let pos = pos_seed mod String.length s in
        let delta = 1 + (delta mod 255) in
        let bad = Bytes.of_string s in
        Bytes.set bad pos (Char.chr (Char.code (Bytes.get bad pos) lxor delta));
        not (Dilithium.verify p pk ~msg:"fuzz" (Bytes.to_string bad)));
    qc "signatures verify for random messages" QCheck.small_string (fun m ->
        let p = Dilithium.dilithium2 in
        let rng = Crypto.Drbg.create ~seed:"dil-rand" in
        let pk, sk = Dilithium.keygen p rng in
        Dilithium.verify p pk ~msg:m (Dilithium.sign p sk m)) ]

let suites =
  [ ( "dilithium",
      [ Alcotest.test_case "spec sizes" `Quick test_sizes;
        Alcotest.test_case "sign/verify all parameter sets" `Slow test_sign_verify;
        Alcotest.test_case "deterministic signing" `Quick test_deterministic_signing;
        Alcotest.test_case "wrong key" `Quick test_wrong_key;
        Alcotest.test_case "malformed inputs" `Quick test_malformed_inputs;
        Alcotest.test_case "aes output pins" `Quick test_aes_pins ]
      @ prop_tests ) ]
