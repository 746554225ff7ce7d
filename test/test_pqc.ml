(* The algorithm zoo: registry completeness, hybrid combinators, the
   simulated suites, mocked wrappers and the cost table. *)

open Pqc

let test_registry_counts () =
  Alcotest.(check int) "23 KAs (Table 2a)" 23 (List.length Registry.kems);
  Alcotest.(check int) "24 SAs (Table 2b + rsa3072_dilithium2)" 24
    (List.length Registry.sigs);
  (* exact paper spellings *)
  List.iter
    (fun n -> ignore (Registry.find_kem n))
    [ "x25519"; "bikel1"; "hqc128"; "kyber512"; "kyber90s512"; "p256";
      "p256_bikel1"; "p256_hqc128"; "p256_kyber512"; "bikel3"; "hqc192";
      "kyber768"; "kyber90s768"; "p384"; "p384_bikel3"; "p384_hqc192";
      "p384_kyber768"; "hqc256"; "kyber1024"; "kyber90s1024"; "p521";
      "p521_hqc256"; "p521_kyber1024" ];
  List.iter
    (fun n -> ignore (Registry.find_sig n))
    [ "rsa:1024"; "rsa:2048"; "falcon512"; "rsa:3072"; "rsa:4096";
      "sphincs128"; "p256_falcon512"; "p256_sphincs128"; "dilithium2";
      "dilithium2_aes"; "p256_dilithium2"; "rsa3072_dilithium2"; "dilithium3";
      "dilithium3_aes"; "sphincs192"; "p384_dilithium3"; "p384_sphincs192";
      "dilithium5"; "dilithium5_aes"; "falcon1024"; "sphincs256";
      "p521_dilithium5"; "p521_falcon1024"; "p521_sphincs256" ];
  Alcotest.(check_raises) "unknown kem" Not_found (fun () ->
      ignore (Registry.find_kem "sike"))

let test_registry_sizes () =
  (* liboqs / NIST-submission wire sizes for the simulated algorithms *)
  let k name = Registry.find_kem name in
  let check_kem name pk ct =
    Alcotest.(check (pair int int)) name (pk, ct)
      ((k name).Kem.public_key_bytes, (k name).Kem.ciphertext_bytes)
  in
  check_kem "bikel1" 1541 1573;
  check_kem "bikel3" 3083 3115;
  check_kem "hqc128" 2249 4497;
  check_kem "hqc192" 4522 9042;
  check_kem "hqc256" 7245 14485;
  check_kem "x25519" 32 32;
  check_kem "kyber512" 800 768;
  let s name = Registry.find_sig name in
  let check_sig name pk sg =
    Alcotest.(check (pair int int)) name (pk, sg)
      ((s name).Sigalg.public_key_bytes, (s name).Sigalg.signature_bytes)
  in
  check_sig "falcon512" 897 666;
  check_sig "falcon1024" 1793 1280;
  check_sig "sphincs128" 32 17088;
  check_sig "sphincs192" 48 35664;
  check_sig "sphincs256" 64 49856;
  check_sig "dilithium2" 1312 2420

(* MD5 of pk || ct || ss (KAs) and of pk || signature (SAs) from real
   keygen, encaps and sign, each algorithm on its own DRBG: the classical
   curves, X25519 and RSA have round-trip tests but no known answers, so
   these pins hold their output bytes (and the p*_ hybrids') fixed. *)
let real_kem_pins =
  [
    ("x25519", "264bde3629254b6a96fd89f8df7f040d");
    ("bikel1", "bfdb460bad7fa0016b18b94cea1ae511");
    ("hqc128", "77ee4baa6b2a80647598e24877c9f4c9");
    ("kyber512", "c505c0c36c27226f47f6bb48af0c6f91");
    ("kyber90s512", "ca476a76da33b65e8f15f0d1e61c414b");
    ("p256", "46efa07991398ea2eeaee7c11bbb2b44");
    ("p256_bikel1", "896d131bcf2f51f13454f0d6c6b89edf");
    ("p256_hqc128", "6168fdce0e19f7d864b5737a042526f4");
    ("p256_kyber512", "673f5d9fa6835cd2464e130a55247db2");
    ("bikel3", "dad35cffb6fad1c9dd3d87509bc2091b");
    ("hqc192", "e125872d74f485bd3a206f11795bf6cf");
    ("kyber768", "5b45bc8d2a7ea52791f0bcf8f97d75ec");
    ("kyber90s768", "8398d0842bae5bc9c02090fe6c39403a");
    ("p384", "94dfa7fc2ef2975f255f9693b5cefd43");
    ("p384_bikel3", "f460abdba33f0399970e4f08e4c7a26e");
    ("p384_hqc192", "8d356a7c45cce358ea4426d4ef93487a");
    ("p384_kyber768", "4c0bad0a54c002714b3fd3fd0ab73909");
    ("hqc256", "ab040f9c3dd8f3d21792bee69fdb1e52");
    ("kyber1024", "05060832580b795b2d0d736a838980cc");
    ("kyber90s1024", "02b8910dc6787c2abbf90a8587dff264");
    ("p521", "502c372abaeb424ac7e1ad52e701e5ed");
    ("p521_hqc256", "2fa33aaf07c38824c991c168494af0d2");
    ("p521_kyber1024", "2d1f8079409da6e22c2f561889ff1cea") ]

let real_sig_pins =
  [
    ("rsa:1024", "767949564577a01721084820489bf712");
    ("rsa:2048", "9efae8e9418614975ab0a831343004b0");
    ("falcon512", "0ffad72f417e93434f412fa3f339bc84");
    ("rsa:3072", "26f722b394e2a8adea91566879dbbebc");
    ("rsa:4096", "e8ae7acc68d9a8fb9930fd113d789a49");
    ("sphincs128", "1af2d07442827ac6633a97dcb7b592db");
    ("p256_falcon512", "1a711a0f8adc8162c38760c83e784799");
    ("p256_sphincs128", "19e7576d1c8f006629bd4b6af5e77c49");
    ("dilithium2", "797083db3124bdc24df6de7516ec8726");
    ("dilithium2_aes", "74678b746235eb05b231ab5d9c4a51d1");
    ("p256_dilithium2", "ee28291a8767bd508fa6a454c9abfb7d");
    ("rsa3072_dilithium2", "65c9ff103b2c395308e584f0d43bdc48");
    ("dilithium3", "96fb9d6f43c8523c8552a800cb41ea3a");
    ("dilithium3_aes", "e192c53f2b89ed99d0f2709bd4014e9e");
    ("sphincs192", "84f3b5b14ab58c3a3dc53b6b87361fe1");
    ("p384_dilithium3", "15c1fcd937257644975a82de894f9152");
    ("p384_sphincs192", "c12dbfc0f7e36ef969a461cfb8cdda79");
    ("dilithium5", "a0a6d4d0302774738b18c0ef064f9ad2");
    ("dilithium5_aes", "1b94c87b7614626113665b07ad67fe14");
    ("falcon1024", "8bd6be163fc976a624637414ee8ebd8e");
    ("sphincs256", "23ce718c065c59f27161ad1827b3e913");
    ("p521_dilithium5", "6b17a0e083221b6a884219b9172df2e5");
    ("p521_falcon1024", "a07e51f52039d029f396a232696ae746");
    ("p521_sphincs256", "09dcb3e776dbde6214ce63757d684944") ]

let md5 s = Digest.to_hex (Digest.string s)

let test_kem_roundtrip_all () =
  Alcotest.(check (list string)) "every KA pinned"
    (List.map (fun (k : Kem.t) -> k.Kem.name) Registry.kems)
    (List.map fst real_kem_pins);
  List.iter
    (fun (kem : Kem.t) ->
      let rng = Crypto.Drbg.create ~seed:("zoo-kem/" ^ kem.Kem.name) in
      let kp = kem.Kem.keygen rng in
      Alcotest.(check int) (kem.Kem.name ^ " pk size") kem.Kem.public_key_bytes
        (String.length kp.Kem.public);
      let ct, ss = kem.Kem.encaps rng kp.Kem.public in
      Alcotest.(check int) (kem.Kem.name ^ " ct size") kem.Kem.ciphertext_bytes
        (String.length ct);
      Alcotest.(check int) (kem.Kem.name ^ " ss size") kem.Kem.shared_secret_bytes
        (String.length ss);
      Alcotest.(check string) (kem.Kem.name ^ " agreement")
        (Crypto.Bytesx.to_hex ss)
        (Crypto.Bytesx.to_hex (kem.Kem.decaps kp.Kem.secret ct));
      Alcotest.(check string) (kem.Kem.name ^ " output pin")
        (List.assoc kem.Kem.name real_kem_pins)
        (md5 (kp.Kem.public ^ ct ^ ss)))
    Registry.kems

let test_sig_roundtrip_all () =
  Alcotest.(check (list string)) "every SA pinned"
    (List.map (fun (s : Sigalg.t) -> s.Sigalg.name) Registry.sigs)
    (List.map fst real_sig_pins);
  List.iter
    (fun (sa : Sigalg.t) ->
      let rng = Crypto.Drbg.create ~seed:("zoo-sig/" ^ sa.Sigalg.name) in
      let kp = sa.Sigalg.keygen rng in
      let s = sa.Sigalg.sign rng ~secret:kp.Sigalg.secret "zoo" in
      Alcotest.(check int) (sa.Sigalg.name ^ " sig size") sa.Sigalg.signature_bytes
        (String.length s);
      Alcotest.(check bool) (sa.Sigalg.name ^ " verify") true
        (sa.Sigalg.verify ~public:kp.Sigalg.public ~msg:"zoo" s);
      Alcotest.(check bool) (sa.Sigalg.name ^ " reject") false
        (sa.Sigalg.verify ~public:kp.Sigalg.public ~msg:"other" s);
      Alcotest.(check string) (sa.Sigalg.name ^ " output pin")
        (List.assoc sa.Sigalg.name real_sig_pins)
        (md5 (kp.Sigalg.public ^ s)))
    Registry.sigs

let test_hybrid_structure () =
  let h = Registry.find_kem "p256_kyber512" in
  let p256 = Registry.find_kem "p256" and ky = Registry.find_kem "kyber512" in
  Alcotest.(check int) "hybrid pk additive"
    (p256.Kem.public_key_bytes + ky.Kem.public_key_bytes)
    h.Kem.public_key_bytes;
  Alcotest.(check int) "hybrid ct additive"
    (p256.Kem.ciphertext_bytes + ky.Kem.ciphertext_bytes)
    h.Kem.ciphertext_bytes;
  Alcotest.(check int) "hybrid ss concatenated"
    (p256.Kem.shared_secret_bytes + ky.Kem.shared_secret_bytes)
    h.Kem.shared_secret_bytes;
  Alcotest.(check bool) "flagged hybrid" true h.Kem.hybrid;
  (* hybrid SA: breaking one component must break the composite *)
  let rng = Crypto.Drbg.create ~seed:"hybrid-sa" in
  let hs = Registry.find_sig "p256_dilithium2" in
  let kp = hs.Sigalg.keygen rng in
  let s = hs.Sigalg.sign rng ~secret:kp.Sigalg.secret "m" in
  Alcotest.(check bool) "composite verifies" true
    (hs.Sigalg.verify ~public:kp.Sigalg.public ~msg:"m" s);
  (* corrupt the classical half *)
  let bad = Bytes.of_string s in
  Bytes.set bad 5 (Char.chr (Char.code (Bytes.get bad 5) lxor 1));
  Alcotest.(check bool) "classical half protects" false
    (hs.Sigalg.verify ~public:kp.Sigalg.public ~msg:"m" (Bytes.to_string bad));
  (* corrupt the PQ half *)
  let bad2 = Bytes.of_string s in
  let off = String.length s - 10 in
  Bytes.set bad2 off (Char.chr (Char.code (Bytes.get bad2 off) lxor 1));
  Alcotest.(check bool) "pq half protects" false
    (hs.Sigalg.verify ~public:kp.Sigalg.public ~msg:"m" (Bytes.to_string bad2))

let test_mocked_wrappers () =
  let rng = Crypto.Drbg.create ~seed:"mock" in
  List.iter
    (fun (kem : Kem.t) ->
      let m = Kem.mocked kem in
      Alcotest.(check string) "same name" kem.Kem.name m.Kem.name;
      Alcotest.(check bool) "flagged" true m.Kem.mocked;
      Alcotest.(check bool) "idempotent" true (Kem.mocked m == m);
      let kp = m.Kem.keygen rng in
      Alcotest.(check int) "mock pk size" kem.Kem.public_key_bytes
        (String.length kp.Kem.public);
      let ct, ss = m.Kem.encaps rng kp.Kem.public in
      Alcotest.(check int) "mock ct size" kem.Kem.ciphertext_bytes (String.length ct);
      Alcotest.(check string) "mock roundtrip"
        (Crypto.Bytesx.to_hex ss)
        (Crypto.Bytesx.to_hex (m.Kem.decaps kp.Kem.secret ct)))
    [ Registry.find_kem "x25519"; Registry.find_kem "kyber768";
      Registry.find_kem "p521_kyber1024" ];
  let sa = Sigalg.mocked (Registry.find_sig "rsa:2048") in
  let kp = sa.Sigalg.keygen rng in
  let s = sa.Sigalg.sign rng ~secret:kp.Sigalg.secret "m" in
  Alcotest.(check int) "mock sig size" 256 (String.length s);
  Alcotest.(check bool) "mock verify" true
    (sa.Sigalg.verify ~public:kp.Sigalg.public ~msg:"m" s)

let test_costs_total () =
  (* every registered algorithm must have a cost entry *)
  List.iter
    (fun (kem : Kem.t) ->
      let c = Costs.kem kem.Kem.name in
      Alcotest.(check bool) (kem.Kem.name ^ " positive costs") true
        (c.Costs.kem_keygen.Costs.ms > 0.
        && c.Costs.kem_encaps.Costs.ms > 0.
        && c.Costs.kem_decaps.Costs.ms > 0.))
    Registry.kems;
  List.iter
    (fun (sa : Sigalg.t) ->
      let c = Costs.sig_ sa.Sigalg.name in
      Alcotest.(check bool) (sa.Sigalg.name ^ " positive costs") true
        (c.Costs.sign.Costs.ms > 0. && c.Costs.verify.Costs.ms > 0.))
    Registry.sigs;
  (* hybrids cost the sum of their parts *)
  let h = Costs.kem "p256_kyber512" in
  let a = Costs.kem "p256" and b = Costs.kem "kyber512" in
  Alcotest.(check (float 1e-9)) "hybrid encaps sum"
    (a.Costs.kem_encaps.Costs.ms +. b.Costs.kem_encaps.Costs.ms)
    h.Costs.kem_encaps.Costs.ms;
  (* the rsa3072 spelling inside hybrid names resolves *)
  let r = Costs.sig_ "rsa3072_dilithium2" in
  let r2 = Costs.sig_ "rsa:3072" and d = Costs.sig_ "dilithium2" in
  Alcotest.(check (float 1e-9)) "rsa hybrid sign sum"
    (r2.Costs.sign.Costs.ms +. d.Costs.sign.Costs.ms)
    r.Costs.sign.Costs.ms;
  Alcotest.(check_raises) "unknown algorithm" Not_found (fun () ->
      ignore (Costs.kem "ntru"))

let test_levels () =
  Alcotest.(check int) "kyber512 level group" 1
    (Registry.kem_level (Registry.find_kem "kyber512"));
  Alcotest.(check int) "dilithium2 grouped with level 1" 1
    (Registry.sig_level (Registry.find_sig "dilithium2"));
  Alcotest.(check int) "kyber768 level group" 3
    (Registry.kem_level (Registry.find_kem "kyber768"));
  Alcotest.(check int) "falcon1024 level" 5
    (Registry.sig_level (Registry.find_sig "falcon1024"));
  let l1 = Registry.level_group 1 `Kem in
  Alcotest.(check int) "six level-1 non-hybrid KAs" 6 (List.length l1);
  Alcotest.(check bool) "no hybrids in level groups" true
    (List.for_all (fun (k : Kem.t) -> not k.Kem.hybrid) l1);
  let s1 = Registry.level_group_sigs 1 in
  Alcotest.(check bool) "only rsa:3072 among RSAs (Fig. 3)" true
    (List.for_all
       (fun (s : Sigalg.t) ->
         match s.Sigalg.name with
         | "rsa:1024" | "rsa:2048" | "rsa:4096" -> false
         | _ -> true)
       s1)

let test_sim_suites () =
  let rng = Crypto.Drbg.create ~seed:"sim" in
  let fresh = Crypto.Memo.create in
  let pk, sk = Sim_suites.kem_keygen (fresh ()) rng ~pk_len:100 in
  Alcotest.(check int) "sim pk len" 100 (String.length pk);
  let ct, ss = Sim_suites.kem_encaps (fresh ()) rng ~pk ~ct_len:200 ~ss_len:64 in
  Alcotest.(check string) "sim kem roundtrip"
    (Crypto.Bytesx.to_hex ss)
    (Crypto.Bytesx.to_hex
       (Sim_suites.kem_decaps (fresh ()) ~sk ~ct ~pk_len:100 ~ct_len:200
          ~ss_len:64));
  Alcotest.(check_raises) "ct too small"
    (Invalid_argument "Sim_suites.kem_encaps: ct too short") (fun () ->
      ignore (Sim_suites.kem_encaps (fresh ()) rng ~pk ~ct_len:16 ~ss_len:32))

(* Every registry KA and SA under [mocked], from fixed seeds: the MD5 of
   the public key, ciphertext and shared secret of each KA (decaps must
   give the same secret) and of the public key and the signature of
   "pins" under each SA. They were recorded when the Sim_suites XOF
   still hashed one concatenated input, so they pin the part-wise
   absorb to the same bytes. The wire pins reach a few algorithms;
   these reach all of them. *)
let kem_pins =
  [ ( "x25519", "8b7795f935b98b28c751e2b1e1201108",
      "8887693792648bd90538ada74432a70c", "3e887f9ee11b230d31fe93aae5e0758a" );
    ( "bikel1", "9708ee7141dc97b8de0311c5b5e635b7",
      "eb3a2b6debf52b5397eafed71c2d3636", "f24c1c0b9574b570c8fcfa4708ed62dd" );
    ( "hqc128", "bcde72eaf4cf55a3bf1bb31fd95f3673",
      "dcf1b0aac6fac43837aa3ca9efcd0229", "7439cb0987b3b0ff3dcb5a7e07875131" );
    ( "kyber512", "dc537301f15ecc7a1e3195ff93c72d5b",
      "db8ea5509e7be873a95d044ca912bb80", "856025639836e5b656d64eada813ca61" );
    ( "kyber90s512", "da7d1d9429d5592ffe32dae793ca1e63",
      "4937ad640e46e9fcda2613a9ad910de3", "fd20531c1d9f3687dbf69dc3a0c18919" );
    ( "p256", "5d8369b2bc29efccd0ae53846c1df53e",
      "f0652344899b9a6d582e1d0e340dee75", "3713227539ba42daf1e59a5a074b3fed" );
    ( "p256_bikel1", "e0ad528178c4b3383c18617a873556b5",
      "f8f2f9883e3c60a734b8d9da15b683f0", "2d552a7c69a171f5692304f164c698f0" );
    ( "p256_hqc128", "eaf30f4f73b6684273540e2b0b985b20",
      "a6010bd55abc52b1201a646b6373fd87", "207a50a5da89f6d2a49cbc78a201209e" );
    ( "p256_kyber512", "6271e6e893c73af9577e2b011e62778e",
      "2fbd385e496f1e1b0a89eefa63d1bcc6", "d864932f73f38c83f65321908e88abd7" );
    ( "bikel3", "6fdf49d57d508bf1ed789f1ec3047dd6",
      "5c1715b4a472d3d548da119685cfc8eb", "cca5bcc1bb3f3857925cf48160e1bea1" );
    ( "hqc192", "882b1e3900bfc0339db9702d24a891c3",
      "2426aba8122880677f41f2da0cb13e70", "c4b893ec5a3357dd8dd7cbff8b7f2d77" );
    ( "kyber768", "cebc0ddff6faec39b89d489a4fb36a66",
      "4c686ebdcd5403eb1d6f01dae812b0c6", "eb2bac7c8a48bf98d1018311a391a462" );
    ( "kyber90s768", "7f3081b7b3fb43c69b0fb18592f8f511",
      "cb4b534618fdb42adc312456fb43a34b", "c7ccaae5c060cca82071b716399eba59" );
    ( "p384", "4ee662443377f7f20bb9d24da4dd7a7c",
      "59b4108a9f1f7b20f0d862f3f0a718bc", "40adcd994c17b7bbceeba679004d4fe3" );
    ( "p384_bikel3", "ac886329e1b42f1cf763613ebc893565",
      "b16048824adb8dc8a3b49947a482443d", "c6a3002b4682ce5db98cdf9d15f5de88" );
    ( "p384_hqc192", "a3a22bb5c5f57c91492f4ed56ed65298",
      "d302cbb1ebf778e2c6b9cc2ad5e4484f", "49e329213f08e1b3c86f118756fd97f4" );
    ( "p384_kyber768", "124dab4e01939d4ba66bd06bc2f0bfdd",
      "fc6582778627749cb24269b004659897", "aaebce30c11e65c2180c15d4a4bc17ec" );
    ( "hqc256", "0ee9b3e59f719ff1da435c94e375c260",
      "b2a21de805be01d9e808448345590b58", "447b7ab781c177e333c4597089ae0dc2" );
    ( "kyber1024", "464472762da6a8f31219d93eac67ec36",
      "1705fb4da1352832168fbf395257cd33", "1b04a0d9483efedc581c4ac688811df1" );
    ( "kyber90s1024", "6d4545836d1bd48234f63bf34e14624e",
      "4024dd36e625151f38995c0f58d91a5e", "2b87517b1db8efaecb0ba137ec775dc8" );
    ( "p521", "33c802297cdc62646d1b7555ebf6eab3",
      "77514ae1b3c943c1216a9833ab731b13", "2a385d1ea7b71ca015e247c69b4db374" );
    ( "p521_hqc256", "1610b8fa0a4280f4f4603afb9f38eb33",
      "ed59c40d7f4a448dfa3f3915f6a9254e", "fe3a4bde50924147149addb20d62f343" );
    ( "p521_kyber1024", "9fb91339918e9345b596d5a4c2a1f4d1",
      "2289befba8dd8ad477fee22a42321b04", "efbf08f4dba5afac29d3a3e3531f5718" ) ]

let sig_pins =
  [ ("rsa:1024", "a76143b4aedf66d0bb252284eeddf2b8", "973824d86e886e883899a801612c82ca");
    ("rsa:2048", "bdc0c053675e515ad30cac383ee1f0c1", "1ed8e2f1e7e1a30a82c5bad22c6cfe19");
    ("falcon512", "98bf076db2f255108e2c87b45fe879f7", "b4a1411da5efd6b52721eb90c5c7faa2");
    ("rsa:3072", "0d68181631da1eb36ded8aa55af32e54", "d116467864f8b2ac2bcfe24e9a4cc7ca");
    ("rsa:4096", "2544a21b6f61652db054b04cfa1e28b3", "3f5913ccf55155529c025fdb58d9f20b");
    ("sphincs128", "19d2dd5598cc2d5da2bec6559cac19df", "f816522221d6c31b58bac9f934800d09");
    ("p256_falcon512", "cd0315f4e1327c43f80777971d336bf2", "62c5fe17def2612ba1a132b6eec6fc53");
    ("p256_sphincs128", "2da0d244770135bceb755955a605f20f", "8d1714748d9380f82fad319372317bd7");
    ("dilithium2", "a1c911ed174169337a0e0d0b77c8afbd", "47a99a1e9483037e61f96b00297d3987");
    ("dilithium2_aes", "457d991ad0d39801e4d307bf06eb9c91", "fc1b9d184eb8521fc656c90cf05f695c");
    ("p256_dilithium2", "0a0e1fafc4ed483cd4df230373ccdfc8", "4c81fe4006e3ea27e805de04c635c36d");
    ("rsa3072_dilithium2", "19cfba3971d83752af633591f27b5262", "a392335f660dcc882c3b18f268ff8930");
    ("dilithium3", "3b5c19ab8f5174dd9e76d52714dfde06", "4b2ff89d88e7a0a93db2afbd71829b6f");
    ("dilithium3_aes", "2290f79241c6e6c0ff5ef80c949a92fe", "66237bebce7d2044e52fd5cfab088a4a");
    ("sphincs192", "dbf5b32bdd49cda5ef89ba7976ccdc5e", "21c5f64e39d8438896b005d481a23269");
    ("p384_dilithium3", "f69d11ac471660d2eb9ccf8cd78e7ae0", "f4036255cbdb49529cc79f19b0b6accb");
    ("p384_sphincs192", "1b47290797e311304befd5dd080d7193", "a4681059004cbbd81476ef5d85cb7627");
    ("dilithium5", "46e22cfc75dc7d53c79c237710977d29", "097486c671a30888216abdbd23b72008");
    ("dilithium5_aes", "8cb71354a8dd05ee9edb49b8c1fd1281", "17bcb608e57144c9dd1afed95ba75520");
    ("falcon1024", "2c43700a0729e812810a65a71a6b8ec7", "fc987600c9c1718c1b27a35254a8d1ad");
    ("sphincs256", "3798b123e67473479e355cb50d91f9a1", "ee4ba0a68e0ae2461b8a9124640d3025");
    ("p521_dilithium5", "6039e2a9536c1d20f806464c505dbf18", "c7715792a914adf5041eaea3b7229243");
    ("p521_falcon1024", "78c8a8cbc32383039664843c53ec029e", "d477d4e657224bd0f866f27f67b8cbe2");
    ("p521_sphincs256", "38a424a77072ce1d0f1d4f5cbe7865be", "4c57ee6737bb2d351917cd81bde59cf1") ]

let test_mocked_pins () =
  Alcotest.(check (list string)) "every KA pinned"
    (List.map (fun (k : Kem.t) -> k.Kem.name) Registry.kems)
    (List.map (fun (name, _, _, _) -> name) kem_pins);
  Alcotest.(check (list string)) "every SA pinned"
    (List.map (fun (s : Sigalg.t) -> s.Sigalg.name) Registry.sigs)
    (List.map (fun (name, _, _) -> name) sig_pins);
  List.iter
    (fun (name, pk, ct, ss) ->
      let kem = Kem.mocked (Registry.find_kem name) in
      let rng = Crypto.Drbg.create ~seed:("pins/" ^ name) in
      let kp = kem.Kem.keygen rng in
      let c, s = kem.Kem.encaps rng kp.Kem.public in
      Alcotest.(check (list string)) name [ pk; ct; ss; ss ]
        [ md5 kp.Kem.public; md5 c; md5 s; md5 (kem.Kem.decaps kp.Kem.secret c) ])
    kem_pins;
  List.iter
    (fun (name, pk, signature) ->
      let sa = Sigalg.mocked (Registry.find_sig name) in
      let rng = Crypto.Drbg.create ~seed:("pins/" ^ name) in
      let kp = sa.Sigalg.keygen rng in
      let s = sa.Sigalg.sign rng ~secret:kp.Sigalg.secret "pins" in
      Alcotest.(check (pair string string)) name (pk, signature)
        (md5 kp.Sigalg.public, md5 s);
      Alcotest.(check bool) (name ^ " verifies") true
        (sa.Sigalg.verify ~public:kp.Sigalg.public ~msg:"pins" s))
    sig_pins

(* The same pins through one memo per algorithm, shared by keygen,
   encaps and decaps (sign and verify) as a connection shares it: the
   checker takes every output the producer put, so the memo ends empty,
   and every byte is the unshared one. *)
let test_shared_memo_pins () =
  List.iter
    (fun (name, pk, ct, ss) ->
      let memo = Crypto.Memo.create () in
      let kem = Kem.share memo (Kem.mocked (Registry.find_kem name)) in
      let rng = Crypto.Drbg.create ~seed:("pins/" ^ name) in
      let kp = kem.Kem.keygen rng in
      let c, s = kem.Kem.encaps rng kp.Kem.public in
      (* pk, then the mask, the ciphertext tail and the secret *)
      Alcotest.(check int) (name ^ ": producer entries") 4
        (Crypto.Memo.length memo);
      Alcotest.(check (list string)) name [ pk; ct; ss; ss ]
        [ md5 kp.Kem.public; md5 c; md5 s; md5 (kem.Kem.decaps kp.Kem.secret c) ];
      Alcotest.(check int) (name ^ ": decaps took every entry") 0
        (Crypto.Memo.length memo))
    kem_pins;
  List.iter
    (fun (name, pk, signature) ->
      let memo = Crypto.Memo.create () in
      let sa = Sigalg.share memo (Sigalg.mocked (Registry.find_sig name)) in
      let rng = Crypto.Drbg.create ~seed:("pins/" ^ name) in
      let kp = sa.Sigalg.keygen rng in
      let s = sa.Sigalg.sign rng ~secret:kp.Sigalg.secret "pins" in
      (* signing took keygen's pk and put the whole signature *)
      Alcotest.(check int) (name ^ ": producer entries") 1
        (Crypto.Memo.length memo);
      Alcotest.(check (pair string string)) name (pk, signature)
        (md5 kp.Sigalg.public, md5 s);
      Alcotest.(check bool) (name ^ " verifies") true
        (sa.Sigalg.verify ~public:kp.Sigalg.public ~msg:"pins" s);
      Alcotest.(check int) (name ^ ": verify took every entry") 0
        (Crypto.Memo.length memo))
    sig_pins

(* one flipped byte (first, middle, last; the tail's first byte, which
   follows the 32-byte head, and both sides of the tail's first
   136-byte XOF block boundary) or a truncation *)
let tampered s =
  let flip i =
    let b = Bytes.of_string s in
    Bytes.set b i (Char.chr (Char.code s.[i] lxor 0x01));
    Bytes.to_string b
  in
  let n = String.length s in
  [ ("first byte", flip 0); ("middle byte", flip (n / 2));
    ("last byte", flip (n - 1)) ]
  @ List.filter_map
      (fun (what, i) -> if i < n then Some (what, flip i) else None)
      [ ("first tail byte", 32); ("last byte of the tail's first block", 32 + 135);
        ("first byte of the tail's second block", 32 + 136) ]
  @ [ ("truncated", String.sub s 0 (n - 1)) ]

(* A tampered ciphertext or signature, checked against the memo its
   producer filled, gets what it gets alone: the implicit-rejection
   secret, or false. *)
let test_shared_memo_tampering () =
  List.iter
    (fun (k : Kem.t) ->
      let name = k.Kem.name in
      let alone = Kem.mocked k in
      let rng = Crypto.Drbg.create ~seed:("tamper/" ^ name) in
      let kp = alone.Kem.keygen rng in
      let ct, ss = alone.Kem.encaps rng kp.Kem.public in
      List.iter
        (fun (what, bad) ->
          (* the producer's entries, as the server leaves them *)
          let memo = Crypto.Memo.create () in
          let shared = Kem.share memo alone in
          let rng = Crypto.Drbg.create ~seed:("tamper/" ^ name) in
          let kp' = shared.Kem.keygen rng in
          ignore (shared.Kem.encaps rng kp'.Kem.public);
          let got = shared.Kem.decaps kp.Kem.secret bad in
          Alcotest.(check string) (name ^ ", " ^ what ^ ": rejection secret")
            (md5 (alone.Kem.decaps kp.Kem.secret bad)) (md5 got);
          Alcotest.(check bool) (name ^ ", " ^ what ^ ": not the secret") false
            (got = ss))
        (tampered ct))
    Registry.kems;
  List.iter
    (fun (sa : Sigalg.t) ->
      let name = sa.Sigalg.name in
      let alone = Sigalg.mocked sa in
      let kp = alone.Sigalg.keygen (Crypto.Drbg.create ~seed:("tamper/" ^ name)) in
      let sign memo =
        (Sigalg.share memo alone).Sigalg.sign
          (Crypto.Drbg.create ~seed:"unused") ~secret:kp.Sigalg.secret "m"
      in
      List.iter
        (fun (what, bad) ->
          let memo = Crypto.Memo.create () in
          ignore (sign memo);
          Alcotest.(check bool) (name ^ ", " ^ what ^ ": rejected") false
            ((Sigalg.share memo alone).Sigalg.verify ~public:kp.Sigalg.public
               ~msg:"m" bad))
        (tampered (sign (Crypto.Memo.create ()))))
    Registry.sigs

(* A checker that finds nothing derives alone and puts nothing. *)
let test_shared_memo_misses () =
  let memo = Crypto.Memo.create () in
  let rng = Crypto.Drbg.create ~seed:"misses" in
  let kem = Kem.mocked (Registry.find_kem "hqc128") in
  let kp = kem.Kem.keygen rng in
  let ct, ss = kem.Kem.encaps rng kp.Kem.public in
  Alcotest.(check string) "decaps on an empty memo" ss
    ((Kem.share memo kem).Kem.decaps kp.Kem.secret ct);
  let sa = Sigalg.mocked (Registry.find_sig "falcon512") in
  let skp = sa.Sigalg.keygen rng in
  let s = sa.Sigalg.sign rng ~secret:skp.Sigalg.secret "m" in
  Alcotest.(check bool) "verify on an empty memo" true
    ((Sigalg.share memo sa).Sigalg.verify ~public:skp.Sigalg.public ~msg:"m" s);
  Alcotest.(check int) "the memo stays empty" 0 (Crypto.Memo.length memo);
  (* only algorithms on Sim_suites are rebound *)
  let real = Registry.find_kem "kyber512" in
  Alcotest.(check bool) "a real KEM is returned as it is" true
    (Kem.share memo real == real)

let suites =
  [ ( "pqc-zoo",
      [ Alcotest.test_case "registry counts and spellings" `Quick test_registry_counts;
        Alcotest.test_case "registry wire sizes" `Quick test_registry_sizes;
        Alcotest.test_case "every KA round-trips" `Slow test_kem_roundtrip_all;
        Alcotest.test_case "every SA round-trips" `Slow test_sig_roundtrip_all;
        Alcotest.test_case "hybrid structure" `Quick test_hybrid_structure;
        Alcotest.test_case "mocked wrappers" `Quick test_mocked_wrappers;
        Alcotest.test_case "cost table coverage" `Quick test_costs_total;
        Alcotest.test_case "level grouping" `Quick test_levels;
        Alcotest.test_case "sim suites" `Quick test_sim_suites;
        Alcotest.test_case "mocked output pins" `Quick test_mocked_pins;
        Alcotest.test_case "shared memo: output pins" `Quick
          test_shared_memo_pins;
        Alcotest.test_case "shared memo: tampering rejected" `Quick
          test_shared_memo_tampering;
        Alcotest.test_case "shared memo: misses put nothing" `Quick
          test_shared_memo_misses ] ) ]
