(* ML-KEM / Kyber: spec sizes, round trips, implicit rejection,
   determinism, and fuzzed ciphertext corruption. *)

open Pqc

let all_params =
  Kyber.[ kyber512; kyber768; kyber1024; kyber512_90s; kyber768_90s; kyber1024_90s ]

let expected_sizes =
  (* name, pk, sk, ct -- the NIST round-3 submission values *)
  [ ("kyber512", 800, 1632, 768); ("kyber768", 1184, 2400, 1088);
    ("kyber1024", 1568, 3168, 1568); ("kyber90s512", 800, 1632, 768);
    ("kyber90s768", 1184, 2400, 1088); ("kyber90s1024", 1568, 3168, 1568) ]

let test_sizes () =
  List.iter
    (fun p ->
      let name = Kyber.name p in
      let _, pk, sk, ct =
        List.find (fun (n, _, _, _) -> n = name)
          (List.map (fun (n, a, b, c) -> (n, a, b, c)) expected_sizes)
      in
      Alcotest.(check int) (name ^ " pk") pk (Kyber.public_key_bytes p);
      Alcotest.(check int) (name ^ " sk") sk (Kyber.secret_key_bytes p);
      Alcotest.(check int) (name ^ " ct") ct (Kyber.ciphertext_bytes p))
    all_params

let test_roundtrip () =
  let rng = Crypto.Drbg.create ~seed:"kyber-rt" in
  List.iter
    (fun p ->
      let name = Kyber.name p in
      let pk, sk = Kyber.keygen p rng in
      Alcotest.(check int) (name ^ " pk len") (Kyber.public_key_bytes p) (String.length pk);
      Alcotest.(check int) (name ^ " sk len") (Kyber.secret_key_bytes p) (String.length sk);
      for _ = 1 to 3 do
        let ct, ss = Kyber.encaps p rng pk in
        Alcotest.(check int) (name ^ " ct len") (Kyber.ciphertext_bytes p) (String.length ct);
        Alcotest.(check int) (name ^ " ss len") 32 (String.length ss);
        Alcotest.(check string) (name ^ " agreement")
          (Crypto.Bytesx.to_hex ss)
          (Crypto.Bytesx.to_hex (Kyber.decaps p sk ct))
      done)
    all_params

let test_implicit_rejection () =
  let rng = Crypto.Drbg.create ~seed:"kyber-rej" in
  List.iter
    (fun p ->
      let name = Kyber.name p in
      let pk, sk = Kyber.keygen p rng in
      let ct, ss = Kyber.encaps p rng pk in
      let bad = Bytes.of_string ct in
      Bytes.set bad 17 (Char.chr (Char.code (Bytes.get bad 17) lxor 0x40));
      let rejected = Kyber.decaps p sk (Bytes.to_string bad) in
      Alcotest.(check bool) (name ^ " rejects corrupt ct") true (rejected <> ss);
      Alcotest.(check int) (name ^ " rejection is a secret") 32 (String.length rejected);
      (* implicit rejection is deterministic *)
      Alcotest.(check string) (name ^ " rejection deterministic")
        (Crypto.Bytesx.to_hex rejected)
        (Crypto.Bytesx.to_hex (Kyber.decaps p sk (Bytes.to_string bad))))
    all_params

let test_determinism () =
  (* same DRBG seed -> identical keys and ciphertexts *)
  let run () =
    let rng = Crypto.Drbg.create ~seed:"kyber-det" in
    let pk, sk = Kyber.keygen Kyber.kyber768 rng in
    let ct, ss = Kyber.encaps Kyber.kyber768 rng pk in
    (pk, sk, ct, ss)
  in
  Alcotest.(check bool) "deterministic" true (run () = run ())

let test_cross_params () =
  (* keys from one parameter set must not decapsulate another's sizes *)
  let rng = Crypto.Drbg.create ~seed:"kyber-cross" in
  let pk512, _ = Kyber.keygen Kyber.kyber512 rng in
  Alcotest.(check_raises) "encaps size check"
    (Invalid_argument "Kyber.encaps: bad pk") (fun () ->
      ignore (Kyber.encaps Kyber.kyber768 rng pk512))

(* The AES-CTR (90s) variants from fixed seeds: MD5 of pk ^ sk and of
   ct ^ ss, recorded when the CTR keystream was regenerated from counter
   0 on every read, so they pin the running-counter stream to the same
   bytes. *)
let test_90s_pins () =
  let md5 s = Digest.to_hex (Digest.string s) in
  List.iter
    (fun (p, keys, encaps) ->
      let name = Kyber.name p in
      let rng = Crypto.Drbg.create ~seed:("pins/" ^ name) in
      let pk, sk = Kyber.keygen p rng in
      let ct, ss = Kyber.encaps p rng pk in
      Alcotest.(check (pair string string)) name (keys, encaps)
        (md5 (pk ^ sk), md5 (ct ^ ss)))
    [ ( Kyber.kyber512_90s, "16c450352fb1e2b2a3d144eaecb51fed",
        "4207f90b690c546135429f265483ea61" );
      ( Kyber.kyber768_90s, "f3cd03b95e9fbf19e0871e5cc0767853",
        "38895ca18dea79082026bc5a67e19802" );
      ( Kyber.kyber1024_90s, "c539bfe34dfadc657133c1639e48ee0f",
        "3865c9bef313c1d4cabf9fe3fcd943c2" ) ]

let qc name gen prop = QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count:25 gen prop)

let prop_tests =
  [ qc "random single-byte corruption never leaks the secret"
      QCheck.(pair small_int small_int)
      (fun (pos_seed, delta) ->
        let p = Kyber.kyber512 in
        let rng = Crypto.Drbg.create ~seed:(Printf.sprintf "kc%d" pos_seed) in
        let pk, sk = Kyber.keygen p rng in
        let ct, ss = Kyber.encaps p rng pk in
        let pos = pos_seed mod String.length ct in
        let delta = 1 + (delta mod 255) in
        let bad = Bytes.of_string ct in
        Bytes.set bad pos (Char.chr (Char.code (Bytes.get bad pos) lxor delta));
        Kyber.decaps p sk (Bytes.to_string bad) <> ss) ]

let suites =
  [ ( "kyber",
      [ Alcotest.test_case "spec sizes" `Quick test_sizes;
        Alcotest.test_case "roundtrip all parameter sets" `Quick test_roundtrip;
        Alcotest.test_case "implicit rejection" `Quick test_implicit_rejection;
        Alcotest.test_case "determinism" `Quick test_determinism;
        Alcotest.test_case "parameter confusion" `Quick test_cross_params;
        Alcotest.test_case "90s output pins" `Quick test_90s_pins ]
      @ prop_tests ) ]
