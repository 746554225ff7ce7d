(* Symmetric primitives against published vectors, plus property tests. *)

open Crypto

let hex = Bytesx.of_hex
let check_hex name want got = Alcotest.(check string) name want (Bytesx.to_hex got)
let msg = "The Performance of Post-Quantum TLS 1.3"

(* ---- hashes -------------------------------------------------------------- *)

let test_sha2 () =
  check_hex "sha256 empty"
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (Sha256.digest "");
  check_hex "sha256 abc"
    "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (Sha256.digest "abc");
  check_hex "sha256 msg"
    "5c961f4161b7f0cc3eb77f4fab0fb3d164e48028a3f02fba4009e16e16974cf2"
    (Sha256.digest msg);
  (* FIPS 180-2, appendix B.2 (two blocks) and B.3 (one million 'a') *)
  check_hex "sha256 448-bit message"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (Sha256.digest "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
  check_hex "sha256 one million a"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Sha256.digest (String.make 1_000_000 'a'));
  check_hex "sha512 abc"
    "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a\
     2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f"
    (Sha512.digest "abc")

(* a context holds its chaining value, its block buffer and two
   counters, and no message schedule: an HMAC builds two per call and a
   handshake about twenty *)
let test_sha256_context_words () =
  let measure f =
    let w0 = Gc.minor_words () in
    ignore (Sys.opaque_identity (f ()));
    Gc.minor_words () -. w0
  in
  let overhead = measure (fun () -> ()) in
  let words = measure Sha256.init -. overhead in
  if words > 32. then
    Alcotest.failf "Sha256.init allocated %.0f words (limit 32)" words

let test_sha2_streaming () =
  (* feeding in odd-size chunks must equal the one-shot digest *)
  let data = String.init 100_000 (fun i -> Char.chr (i mod 251)) in
  let ctx = Sha256.init () in
  let pos = ref 0 and step = ref 1 in
  while !pos < String.length data do
    let take = min !step (String.length data - !pos) in
    Sha256.feed_sub ctx data !pos take;
    pos := !pos + take;
    step := (!step * 7 mod 1024) + 1
  done;
  check_hex "streamed = one-shot" (Bytesx.to_hex (Sha256.digest data)) (Sha256.get ctx);
  check_hex "sha256sum of all 100000 bytes"
    "cd2df694e424bc7968cc37f47751019e5ca0cd1bdf2e479ea537c3a1c32ee1aa"
    (Sha256.get ctx);
  (* get must not disturb the running context *)
  let c2 = Sha256.init () in
  Sha256.feed c2 "ab";
  let _ = Sha256.get c2 in
  Sha256.feed c2 "c";
  check_hex "get is non-destructive"
    "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (Sha256.get c2);
  (* every length across the first three blocks, split at the padding
     edges: streamed = one-shot *)
  for len = 0 to 200 do
    List.iter
      (fun split ->
        if split <= len then begin
          let c = Sha256.init () in
          Sha256.feed_sub c data 0 split;
          Sha256.feed_sub c data split (len - split);
          Alcotest.(check string)
            (Printf.sprintf "length %d split at %d" len split)
            (Bytesx.to_hex (Sha256.digest (String.sub data 0 len)))
            (Bytesx.to_hex (Sha256.get c))
        end)
      [ 0; 1; 55; 56; 63; 64; len ]
  done;
  (* digests pinned from sha256sum over the first [n] bytes of [data];
     at each padding edge, [get] mid-stream must return the prefix's
     digest and leave the context able to finish the whole input *)
  List.iter
    (fun (n, want) ->
      check_hex (Printf.sprintf "sha256sum of %d bytes" n) want
        (Sha256.digest (String.sub data 0 n));
      let c = Sha256.init () in
      Sha256.feed_sub c data 0 n;
      check_hex (Printf.sprintf "get at %d" n) want (Sha256.get c);
      check_hex (Printf.sprintf "get again at %d" n) want (Sha256.get c);
      Sha256.feed_sub c data n (200 - n);
      Alcotest.(check string)
        (Printf.sprintf "context unchanged by get at %d" n)
        (Bytesx.to_hex (Sha256.digest (String.sub data 0 200)))
        (Bytesx.to_hex (Sha256.get c)))
    [ (55, "463eb28e72f82e0a96c0a4cc53690c571281131f672aa229e0d45ae59b598b59");
      (56, "da2ae4d6b36748f2a318f23e7ab1dfdf45acdc9d049bd80e59de82a60895f562");
      (63, "29af2686fd53374a36b0846694cc342177e428d1647515f078784d69cdb9e488");
      (64, "fdeab9acf3710362bd2658cdc9a29e8f9c757fcf9811603a8c447cd1d9151108");
      (119, "da18797ed7c3a777f0847f429724a2d8cd5138e6ed2895c3fa1a6d39d18f7ec6");
      (120, "f52b23db1fbb6ded89ef42a23ce0c8922c45f25c50b568a93bf1c075420bbb7c") ]

let test_sha3 () =
  check_hex "sha3-256 empty"
    "a7ffc6f8bf1ed76651c14756a061d662f580ff4de43b49fa82d80a4b80f8434a"
    (Keccak.sha3_256 "");
  check_hex "sha3-256 msg"
    "c853950425f6bb6128ef36c5e52c194cea6e2aa2f46b0c37b20ce32fac270a67"
    (Keccak.sha3_256 msg);
  check_hex "sha3-512 abc"
    "b751850b1a57168a5693cd924b6b096e08f621827444f70d884f5d0240d2712e\
     10e116e9192af3c91a7ec57647e3934057340b4cf408d5a56592f8274eec53f0"
    (Keccak.sha3_512 "abc");
  check_hex "shake128 msg"
    "de805bd4a86e597fd39324bc92d86a68f5113f0c2a6ca5f7bd3cc991b50a7b12"
    (Keccak.shake128 msg 32);
  check_hex "shake256 empty (first 32)"
    "46b9dd2b0ba88d13233b3feb743eeb243fcd52ea62b81b82b50c27646ed5762f"
    (Keccak.shake256 "" 32)

let test_shake_incremental () =
  (* squeezing in pieces must equal a single squeeze *)
  let one_shot = Keccak.shake256 msg 700 in
  let x = Keccak.Xof.shake256 msg in
  let parts =
    List.map (Keccak.Xof.squeeze x) [ 1; 2; 61; 136; 300; 200 ]
  in
  Alcotest.(check string) "incremental squeeze" one_shot (String.concat "" parts)

let test_sha3_multi_block () =
  (* a 200-byte message spans two SHA3-256/SHAKE256 blocks (rate 136)
     and two SHAKE128 blocks (rate 168); bytes 268..299 of a 300-byte
     output come from the second squeeze block *)
  let m = String.make 200 '\xa3' in
  check_hex "sha3-256 a3x200"
    "79f38adec5c20307a98ef76e8324afbfd46cfd81b22e3973c65fa1bd9de31787"
    (Keccak.sha3_256 m);
  check_hex "shake128 a3x200 [268,300)"
    "e53e5a4a6197dbec5ce95f505b520bcd9570c4a8265a7e01f89c0c002c59bfec"
    (String.sub (Keccak.shake128 m 300) 268 32);
  check_hex "shake256 a3x200 [268,300)"
    "a5e4fa0514ae974d8c2648513b5db494cea847156d277ad0e141c24c7839064c"
    (String.sub (Keccak.shake256 m 300) 268 32)

(* shake256_parts_into writes exactly shake256_parts's output into its
   range, and shake256_parts_equal finds it there, misses any one
   flipped byte, and answers false on a range outside its string *)
let test_shake_parts_in_place () =
  let parts = [ "sim:"; "sig-tail"; ":"; String.make 32 '\x5c' ] in
  List.iter
    (fun len ->
      let expected = Keccak.shake256_parts parts len in
      List.iter
        (fun off ->
          let name = Printf.sprintf "len %d at %d" len off in
          let buf = Bytes.make (off + len + 9) '\x77' in
          Keccak.shake256_parts_into parts buf off len;
          Alcotest.(check string) (name ^ ": output") expected
            (Bytes.sub_string buf off len);
          Alcotest.(check string) (name ^ ": bytes around it untouched")
            (String.make off '\x77' ^ String.make 9 '\x77')
            (Bytes.sub_string buf 0 off ^ Bytes.sub_string buf (off + len) 9);
          let s = Bytes.to_string buf in
          Alcotest.(check bool) (name ^ ": equal") true
            (Keccak.shake256_parts_equal parts s off len);
          List.iter
            (fun i ->
              if 0 <= i && i < len then begin
                let b = Bytes.of_string s in
                Bytes.set b (off + i)
                  (Char.chr (Char.code s.[off + i] lxor 0x80));
                Alcotest.(check bool)
                  (Printf.sprintf "%s: byte %d flipped" name i)
                  false
                  (Keccak.shake256_parts_equal parts (Bytes.to_string b) off len)
              end)
            [ 0; 135; 136; len - 1 ])
        [ 0; 7 ])
    [ 0; 1; 135; 136; 137; 49_824 ];
  let s = Keccak.shake256_parts parts 200 in
  List.iter
    (fun (off, len) ->
      Alcotest.(check bool)
        (Printf.sprintf "range (%d, %d) outside a 200-byte string" off len)
        false
        (Keccak.shake256_parts_equal parts s off len))
    [ (-1, 10); (0, -1); (0, 201); (1, 200); (201, 0); (max_int, 1);
      (1, max_int) ];
  Alcotest.check_raises "shake256_parts_into outside its buffer"
    (Invalid_argument "Keccak.shake256_parts_into") (fun () ->
      Keccak.shake256_parts_into parts (Bytes.create 10) 5 6)

(* SHA3 and SHAKE of a fixed byte pattern at lengths around each rate
   (72, 136, 168) and twice the SHAKE256 rate, from Python's hashlib. Each
   row is (length, SHA3-256, SHA3-512, SHAKE128, SHAKE256); a SHAKE pair
   pins bytes [0, 32) and [468, 500) of a 500-byte squeeze, which spans
   three SHAKE128 and four SHAKE256 output blocks. *)
let keccak_kats =
  [ ( 0,
      "a7ffc6f8bf1ed76651c14756a061d662f580ff4de43b49fa82d80a4b80f8434a",
      "a69f73cca23a9ac5c8b567dc185a756e97c982164fe25859e0d1dcc1475c80a6\
       15b2123af1f5f94c11e3e9402c3ac558f500199d95b6d3e301758586281dcd26",
      ( "7f9c2ba4e88f827d616045507605853ed73b8093f6efbc88eb1a6eacfa66ef26",
        "4e1300b9b2153d2041d205b443e41b45a653f2a5c4492c1add544512dda25298" ),
      ( "46b9dd2b0ba88d13233b3feb743eeb243fcd52ea62b81b82b50c27646ed5762f",
        "1875824d09958f341ef274bdab0bae316339894304e35877b0c28a9b1fd166c7" ) );
    ( 1,
      "5223f7670b3b9ba04f57d477478ae77a58190d89f21da0b0be774735e23f9c96",
      "340d7ff9f80cab5032d68e7437a7aad37695f663934c54922f7f09b22be42c32\
       e17e6ab08abf273f9f23121120fa1660e262f8625c97419bacd73310392f8b3f",
      ( "7c5f30fe262c65b3a20a2c5193a291d33a1022466825e0513dc744f1821aeaed",
        "905dc41f7ed8956ecb9b046e716725b7d06d339252ebf58ffd1bc52ff650f021" ),
      ( "b80ae24d9eb153769f5255dd09ac372349aa2571ae69543fa6a7a837532d06f2",
        "603d3921865bbf57751c7053d0c98acf8aafb193d017ece87b597c31d8d5cb58" ) );
    ( 7,
      "5acf9e46e9e6ceb2e4ef83038a3914323622f78511dc75218c388e720653b13f",
      "44d6a883df7c29f00939d37acee478232143b332f3b6940c3844061355802e16\
       e902cc9059b6abc4840a97f2a4a7d3c82dfd4251b3b589604d193f3d4e31eaf9",
      ( "91d02e85cdfc3ef03ee16f264e42e6cd9b4b98d4b9661d6957b17a9611db8bfe",
        "95a195199f58d39c1ecfbe81217ee137de9b23ccd608d510d1707b91bcf96648" ),
      ( "d5f9ae37afa60b2da80329d586ff632c78b795e5b196ef7e2b9fdfe4d789d6e6",
        "cdf62e0244a6790fbab32d614ab6fef7910cea6581e3eac6f9bbfcffb8bcec58" ) );
    ( 8,
      "9cd587962e194b0ea4f890d033a2e10043e6cdce3d05d9cfd514a6a6a4642be9",
      "6722318394d2815791bae3670a59e58b6c5f7ade40d37307e05bdcdb396c4a3f\
       89c91ce7e298d7ed9df983f314bea0b7df0503fe6d0057c45d309203df357eb1",
      ( "9a44c06e69df892409da4d4bf93069ac0874f0d4807efb693462b74390d4daa8",
        "bbd6042329b44cf1e9c0362039a9baf1c6fff00156fcd50b1d59009fc4944554" ),
      ( "2991f53ff5fb7bfd2cfccd86c98039b2c23d52ee5428d30cd8f7d27d87538814",
        "7ac97ca11f35439ce2e6730cb670c38a3e44d5e04daebf635fc2cc5818b69f0f" ) );
    ( 9,
      "8cad1f928d81d6856d83f910e24b82f356265c291d32312ec0c3330bfdab50f8",
      "b71eb701c157afaf45c2a510839dca9c6165344cb7d7b8b23ab93d393f670e2a\
       07fd25ccb152693402da97ca3f638530b6fa48893145b13bdde2ad5bf54473a0",
      ( "05638e578b0d489f16fc005fd193ed2da5334d8680910d467330b7af9220f4df",
        "1462bf8f3c1af8cf04c2e3eb36e1d5d7185ad45feefa9d7908113dbe4996ba0e" ),
      ( "9120bf25ec40de3ea8d2b3b62b3b0ff4bdac45605f8d5fd1d0a27fdc7d89053f",
        "5f848fa4ccdc0335aa518ba06b6a1c428e9bc3b4ce9db9334c294c074bb6b720" ) );
    ( 71,
      "08dc4b08103212f7147acb126935f702831ddc658f1af45eb56022bc006ea9c7",
      "15e93a11d76e7f88387b7aff41ec4e220da38c1bfb86ae472321667489308ad1\
       b8b1aa6e2c3413a9e6d558381f27e62177924b53af5c5bcbfaed6e3b42b4105c",
      ( "3ab54c5ebbb81171374c0490df61c93886abe0abac1a331074f57b7853f2061a",
        "e539296ce7f79e241f62acb942c908a652c7babf82f2f9c91eb3fd525bc79ad0" ),
      ( "0320c35b0251bf55a7a999f76faacd43e1eeb610fbe5641536137c848cd05601",
        "57e6a338c1d883c940d65c823a29d0e16f56e01b4f5b66d15f8b7e275151ea68" ) );
    ( 72,
      "e1db4b2b87ec8b848450dc0b2696aa28d27ffca06840f184a3b96113275288e4",
      "9032e99e709fc9205b3f5f15f68f4f02f5afa4ffbed99628ad385247be2b492d\
       82cf4e7871339535baf2424443100cff38587507401d0f241e5006a474788726",
      ( "2d66773589e79998061ea4552e73bd219af2e6d200f0dc684855edf534cb4cdd",
        "d2dd41ced3ad890767d618fb52ad94b2355492c57c70f48506459d545cc01d1f" ),
      ( "bb30ea8269d3941faac5727ab89a5468513869dad6304299856b5a88b6dcf07d",
        "36386012b18c806cd7e3393376de222232541e970d882dea2bb13e10bbca3b53" ) );
    ( 73,
      "768142f9b927a4ee4975ff9eaf63de4b66e299a42a136d5523f85f49b2e123bf",
      "8d24425518611222be23bf73f200e9bb9985b21143ddc579c6884cdf61371224\
       77e039b8c174fcfd9df773459c9b048edc855fcd5bccbee8c6533556113f7ecd",
      ( "d5c755efed573110caba809821086794267252775cb44c1c436a1e12b7ac2970",
        "fc4309e14d096192034d47c88b50c145f4402bb2e776933757708924b24c5971" ),
      ( "0b4f4fc3a789c1c7b9fb4b5f87c5b0e3fdb4c0807dbcf019678c064608d138de",
        "8dd3290048acf3c601c1a4007e804951bc2914bc2f2e23a9316cef85573cf621" ) );
    ( 135,
      "27177c35076523ab12bf3c60c7e340ac833bee9017b0b9d273d25f1bc8759ce1",
      "583439ef05460f9775ab2dd129cf86e3619cb0cdd5b08414ed4a234d061c5f08\
       2a2a0b4879d8dff826110fedbde9d49ef97bed427d6f7295a2dcf5e59bdb37ce",
      ( "1387cd7ff54246b6a3c54a442c5517d10038fcbeb745c1ffbfb3cc580133709c",
        "8438ac562ec8a40b0af0df75fcaf510a17c2fb3a0ef47d1d28c9d946cb5f6208" ),
      ( "9c585fe7ff9ec0f1b00a968b3f5a09b8aef98b0b1412d83817457c22a898ec73",
        "385ba5e52b09f27e241c348705d9d229e9f419c3b2b8b183544a7fa9c242c2fc" ) );
    ( 136,
      "bf55dd8c0b4dd0f226d019f9b85d74e3d77cd13409e1306665a44cc688a93d6e",
      "b58e567cc5e9e7fbf1b6485c814f97030748ce1218ff693618530cd199e9a5e7\
       31bb09e8d6348528ab16bea466e18a2c0f2d0eb48d2d1de63cde06cb5cbfb685",
      ( "73681d0342aabcb50f5f50b0e5dff20113750daed75f0a2ddb263966a2905701",
        "32eb3d4d4c2ff4b55c6bd8d3b0a81d9d81ed716acc8511bba63a9868ecc2b111" ),
      ( "b4528271407be681bf55998f4f3918c97019bb6280bd42d3b9300822760586f5",
        "72ef51037c045fcb02213ab3c8e55a724d22ca6200bdac61585e7a389c4646f6" ) );
    ( 137,
      "b88ad98270115d9a7d164a81476b4b1c999eac7a9b67cfe013c365496a599e11",
      "c06410f36f7850445951bde73059bab501cbc3300939cc5a880385d300c1ae0b\
       6d569d196e9291c63fa97a1ad3094f2f8bdd4a7d2a1d1033db6b769d65832f8b",
      ( "1144f604cc80164a9796a8663f59e641f04a32fa6b25f4e8fc6cc6d95351c8f4",
        "fe0d5e60a039710c980243b9ca1e9bbad3facdcb719f657527c616fa57e4f9d7" ),
      ( "6a774f0b3998136c58af9ed6ab80b9ed1ece811e5018a0039fb04c6a32a6302d",
        "601d203cd51037e9840399bb99e3c2b7ffacf90948ec8a3b1b8a4e41bbac0a59" ) );
    ( 167,
      "c6f3aa8d05881d37ba5849f32c719edfa77e3a98f0fa6faf0c13807bde8f9f78",
      "de602352e16adb513c498647ccf1e5c0e88d13020ff2f5d61186adcb4b7d04c0\
       b69b28db79a90a9f4e91676c56007b1d6b14cdc2af00fb8c3c2a24a29777b6dd",
      ( "1efd16dc15d14b107dbac8911e62ca44fc58514d09f3964a32d5fa06bcc3a46d",
        "11346fa25b8f755841826bb6280bcc225528b2f120cb8e0f987e84a19b74739f" ),
      ( "a749bff3fc294a41eb579624e75526cac6edc3aa13ce7505074b30a979737676",
        "9043b7f5dc3f7d962f44d219f91c9bfaaa7cfa35ceb365a1f0a5ea92ad23ef78" ) );
    ( 168,
      "52721f3b517c6521539677e4252d4c7c550eeacfd2befa64699e5b27fb19c7e3",
      "7e2d681e8626f47c8445adcdc1038b99a6eb21a0cce36bb0d267623fdeed2367\
       bff61647f621aa5f43273eed83264e22ddb9e1b17528b61c9ce62a60680df92d",
      ( "ed300818a030af92239f7140176a0e468fad27ea97b3f01578817e8e80f16fce",
        "b6166c31ac4cdbed06ff275c8acdd0671cbb8d92fd2ec4902be45e9221482cd9" ),
      ( "5fd8a83a33b38b81535272932cf775219a081d4c9ed18a7f2779daaffe1f15d0",
        "32bfeba0e230ba7ca22980c9d72f5ae4d75743560da98e67d4dff87c1813b035" ) );
    ( 169,
      "707d8feeca714529fc25db07d8c40fe594dd76518eccfd9b38d08a491c18892d",
      "b73230ef068d3740f4e50c1c0ee454bc80485bb2d960832e0b21dec2f7cf4f70\
       6660fb74d7488b0b006eef3d4a229fbd29d3742224758c09437e5590cc58decc",
      ( "3d052d31961f49122056846ddd7b43b37b680610f8343eb30372a0f3c67f648f",
        "055d54daaf5d542963601f02ac8ad3bde4b6877b1e3fd26eda31c8a003884e35" ),
      ( "b4478936cd86da284cf65a893d79fa447c14bfed298ca1a9c8632116ec0e58c5",
        "1bade7c17269e897ec1d47f6ff13969b33770d727596e2fdcb19cdf4a6f7622f" ) );
    ( 271,
      "0a4ee8fd7f5dc6285c6e3901fd80a20e0fed1d40e0bfb6e01b22b822e5b71009",
      "25c8d19d7ea788cae7e021000eea7e4295a49b37ff3e20b669efe89dea0ee894\
       bf6269f1c397c0c451e8e49402d8671ad216cea8ddb755bee1c8d0c11b4ee6b1",
      ( "47e6e0656ffe1816435a84fed0f2563d30d8aa765a5105695a252b09731f2ccc",
        "d0aa4e663862f3867107a47c1bfb3607daa8bd377d60d37b8d61602f0015bed9" ),
      ( "4000622d64522f06328d08b5189bc9887f28894097d41d00f29242e1195dfdcc",
        "4fbaf256e07e7f721e51fac6e6a88976bff3a0c9488401c716c33d8199e0ee44" ) );
    ( 272,
      "b323515ec9ee619c2c497029753e8a92bb26ef831e9523799cc7b0bfe3f912aa",
      "76d8b76029fbec734d25760b863ba2e5dea05842f00106fb641cdc2da90fa183\
       bde2a421855cbb58a9438de92d54c06324eb8e8287fac290a58247aad8361dfc",
      ( "1dba7edb2c92d355333461f9cc8bfd3885b3ba3c0dcd89075be3a9157ca00124",
        "54743f37bdd4239307c15298c5632416ec6bf06cb45c560878ec0ac96f127a89" ),
      ( "33c13aae83532424ab14070d02fb31feeac6d38f1c5f52eabe287cb671abecdf",
        "f67fbd99eacade05581fe44fb839457210385f931b8d85fe8d7db573f6b9d6e6" ) );
    ( 273,
      "b6ab1e9b93e1e9fce42f918be7ba286f26c2c5513187a42a8eb666262fc97bed",
      "936fde66f72aa81e06ba51bdd3a37af67027224825c2e15e1ce9b8551a0996a8\
       a9b938ec2c5adfc6859130c98324d6893fc88efffb282cf4467f9ba2de739994",
      ( "8f531cdfb2a12435c136d0509aa452c75fb7ce29698ae36d7b5846d70abe6170",
        "61952bdb573a651d11728122ee153733fa807b6a4afe3ac0014e72a8661c624e" ),
      ( "fc2d5936eb42934a9595ee338511954023262fe17746724abe6056cf2dd176bc",
        "c788ef3044385cf8d2d7745a91344e3b471d4d7d8408306c48b3e9046a361919" ) );
    ( 1000,
      "e9612e6ecfc2fc3c9467302e2563d3155906eaf49e0bb663e460791ef2fec839",
      "842d060a3f1a6d6b80aaf57258f0edb7e1c0abcfa112479ac989b1527d0b0c5e\
       f6da88b7f6c80cd05a7a1e08d46865bf02620044ded6ef5c21c8902a38d4f909",
      ( "b0e0c141ce415f44188aa69075387c0af2114a07797fd7ffd9a9afe7257b9ad3",
        "c81682cc3fb274a9736193329448eb92ade29da6d584e3e01aa8a2baa7ae12a4" ),
      ( "1f9024b7861ad474ce4d8253ae8b899dec5219a9c5818db284d61b06be35774b",
        "d140b76d81c39b63b30c524735fb3d343b455ab47f80f506e383c4130a005860" ) ) ]

let kat_pattern n = String.init n (fun i -> Char.chr (((i * 31) + 7) land 0xff))

let test_keccak_kats () =
  List.iter
    (fun (n, sha3_256, sha3_512, (s128_head, s128_tail), (s256_head, s256_tail)) ->
      let m = kat_pattern n in
      let name what = Printf.sprintf "%s of %d bytes" what n in
      check_hex (name "sha3-256") sha3_256 (Keccak.sha3_256 m);
      check_hex (name "sha3-512") sha3_512 (Keccak.sha3_512 m);
      List.iter
        (fun (what, shake, head, tail) ->
          let out = shake m 500 in
          check_hex (name what) head (String.sub out 0 32);
          check_hex (name (what ^ " [468,500)")) tail (String.sub out 468 32);
          check_hex (name (what ^ " 32-byte squeeze")) head (shake m 32))
        [ ("shake128", Keccak.shake128, s128_head, s128_tail);
          ("shake256", Keccak.shake256, s256_head, s256_tail) ])
    keccak_kats

(* ---- MAC / KDF ------------------------------------------------------------ *)

let test_hmac () =
  (* RFC 4231 test case 2 *)
  check_hex "hmac-sha256 rfc4231#2"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (Hmac.hmac ~key:"Jefe" "what do ya want for nothing?");
  (* RFC 4231 cases 1, 3, 4, 6 and 7 for HMAC-SHA-256: short, 20-byte,
     25-byte and longer-than-a-block keys, and a longer-than-a-block
     message *)
  let big_key = String.make 131 '\xaa' in
  List.iter
    (fun (case, key, data, want) ->
      check_hex ("hmac-sha256 rfc4231#" ^ case) want
        (Hmac.hmac ~key data))
    [ ( "1", String.make 20 '\x0b', "Hi There",
        "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7" );
      ( "3", String.make 20 '\xaa', String.make 50 '\xdd',
        "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe" );
      ( "4", String.init 25 (fun i -> Char.chr (i + 1)), String.make 50 '\xcd',
        "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b" );
      ( "6", big_key, "Test Using Larger Than Block-Size Key - Hash Key First",
        "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54" );
      ( "7", big_key,
        "This is a test using a larger than block-size key and a larger \
         than block-size data. The key needs to be hashed before being \
         used by the HMAC algorithm.",
        "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2" ) ];
  (* keys longer than the block size get hashed *)
  let long_key = String.make 200 'k' in
  Alcotest.(check string)
    "long key = hashed key"
    (Bytesx.to_hex (Hmac.hmac ~key:(Sha256.digest long_key) msg))
    (Bytesx.to_hex (Hmac.hmac ~key:long_key msg))

let test_hkdf () =
  (* RFC 5869 test case 1 *)
  let ikm = String.make 22 '\x0b' in
  let salt = hex "000102030405060708090a0b0c" in
  let info = hex "f0f1f2f3f4f5f6f7f8f9" in
  let prk = Hkdf.extract ~salt ~ikm in
  check_hex "hkdf prk"
    "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5" prk;
  check_hex "hkdf okm"
    "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf\
     34007208d5b887185865"
    (Hkdf.expand ~prk ~info 42)

(* ---- AES / GCM ------------------------------------------------------------ *)

let test_aes () =
  let enc key pt =
    Bytesx.to_hex (Aes.encrypt_block (Aes.expand_key (hex key)) (hex pt))
  in
  Alcotest.(check string) "aes-128 fips-197"
    "69c4e0d86a7b0430d8cdb78070b4c55a"
    (enc "000102030405060708090a0b0c0d0e0f" "00112233445566778899aabbccddeeff");
  Alcotest.(check string) "aes-192 fips-197"
    "dda97ca4864cdfe06eaf70a0ec0d7191"
    (enc "000102030405060708090a0b0c0d0e0f1011121314151617"
       "00112233445566778899aabbccddeeff");
  Alcotest.(check string) "aes-256 fips-197"
    "8ea2b7ca516745bfeafc49904b496089"
    (enc "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"
       "00112233445566778899aabbccddeeff")

let test_aes_ctr () =
  let key = Aes.expand_key (hex "000102030405060708090a0b0c0d0e0f") in
  let ks = Aes.ctr_keystream key ~nonce:(String.make 12 '\000') 100 in
  (* keystream must be deterministic and a prefix-extension *)
  let ks2 = Aes.ctr_keystream key ~nonce:(String.make 12 '\000') 40 in
  Alcotest.(check string) "ctr prefix" ks2 (String.sub ks 0 40);
  let pt = String.init 77 (fun i -> Char.chr (i * 3 mod 256)) in
  let ks77 = Aes.ctr_keystream key ~nonce:(String.make 12 '\000') 77 in
  Alcotest.(check string) "ctr roundtrip" pt
    (Bytesx.xor (Bytesx.xor pt ks77) ks77);
  (* a stream read in pieces continues where the last read stopped *)
  let t = Aes.ctr_stream key ~nonce:(String.make 12 '\000') in
  Alcotest.(check string) "ctr stream pieces" ks
    (String.concat "" (List.map (Aes.ctr_squeeze t) [ 3; 0; 13; 16; 1; 40; 27 ]));
  (* the counter fails instead of wrapping: 15 nonce bytes leave one
     counter byte (256 blocks), 16 leave none (one block) *)
  let overflow = Invalid_argument "Aes.ctr_squeeze: counter overflow" in
  Alcotest.(check int) "256 blocks under a 15-byte nonce" 4096
    (String.length (Aes.ctr_keystream key ~nonce:(String.make 15 'n') 4096));
  Alcotest.check_raises "block 257 under a 15-byte nonce" overflow (fun () ->
      ignore (Aes.ctr_keystream key ~nonce:(String.make 15 'n') 4097));
  Alcotest.(check string) "one block under a 16-byte nonce"
    (Aes.encrypt_block key (String.make 16 'n'))
    (Aes.ctr_keystream key ~nonce:(String.make 16 'n') 16);
  Alcotest.check_raises "block 2 under a 16-byte nonce" overflow (fun () ->
      ignore (Aes.ctr_keystream key ~nonce:(String.make 16 'n') 17))

let test_gcm () =
  (* NIST GCM test case 1/2 and 4 *)
  let k0 = Aes_gcm.of_secret (String.make 16 '\000') in
  check_hex "gcm case 1" "58e2fccefa7e3061367f1d57a4e7455a"
    (Aes_gcm.seal k0 ~nonce:(String.make 12 '\000') ~ad:"" "");
  check_hex "gcm case 2"
    "0388dace60b6a392f328c2b971b2fe78ab6e47d42cec13bdf53a67b21257bddf"
    (Aes_gcm.seal k0 ~nonce:(String.make 12 '\000') ~ad:"" (String.make 16 '\000'));
  let k = Aes_gcm.of_secret (hex "feffe9928665731c6d6a8f9467308308") in
  let nonce = hex "cafebabefacedbaddecaf888" in
  let pt =
    hex
      "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
       1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39"
  in
  let ad = hex "feedfacedeadbeeffeedfacedeadbeefabaddad2" in
  check_hex "gcm case 4"
    "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e\
     21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e0915bc94fbc\
     3221a5db94fae95ae7121a47"
    (Aes_gcm.seal k ~nonce ~ad pt);
  (match Aes_gcm.open_ k ~nonce ~ad (Aes_gcm.seal k ~nonce ~ad pt) with
  | Some got -> Alcotest.(check string) "gcm roundtrip" (Bytesx.to_hex pt) (Bytesx.to_hex got)
  | None -> Alcotest.fail "gcm roundtrip failed");
  (* tampering must be caught *)
  let sealed = Bytes.of_string (Aes_gcm.seal k ~nonce ~ad pt) in
  Bytes.set sealed 5 (Char.chr (Char.code (Bytes.get sealed 5) lxor 1));
  Alcotest.(check bool) "gcm tamper" true
    (Aes_gcm.open_ k ~nonce ~ad (Bytes.to_string sealed) = None);
  Alcotest.(check bool) "gcm wrong ad" true
    (Aes_gcm.open_ k ~nonce ~ad:"other" (Aes_gcm.seal k ~nonce ~ad pt) = None)

(* ---- DRBG ------------------------------------------------------------------ *)

let test_drbg () =
  let a = Drbg.create ~seed:"s" and b = Drbg.create ~seed:"s" in
  Alcotest.(check string) "deterministic" (Drbg.generate a 64) (Drbg.generate b 64);
  let c = Drbg.create ~seed:"t" in
  Alcotest.(check bool) "seed-sensitive" true
    (Drbg.generate (Drbg.create ~seed:"s") 32 <> Drbg.generate c 32);
  let d = Drbg.create ~seed:"s" in
  let child = Drbg.fork d "x" in
  Alcotest.(check bool) "fork independent" true
    (Drbg.generate child 32 <> Drbg.generate (Drbg.create ~seed:"s") 32)

(* A taken entry is gone, and an entry answers only a lookup with its
   tag, its output length and every one of its parts. *)
let test_memo () =
  let m = Memo.create () in
  let key = String.make 32 'k' in
  Memo.put m ~tag:"t" [ key; "ctx" ] (String.make 32 'o');
  let miss what tag parts len =
    Alcotest.(check (option string)) what None (Memo.take m ~tag parts len)
  in
  miss "other tag" "u" [ key; "ctx" ] 32;
  miss "other output length" "t" [ key; "ctx" ] 16;
  miss "other first part" "t" [ String.make 32 'j'; "ctx" ] 32;
  miss "other last part" "t" [ key; "ctY" ] 32;
  miss "fewer parts" "t" [ key ] 32;
  miss "more parts" "t" [ key; "ctx"; "" ] 32;
  Alcotest.(check int) "misses keep the entry" 1 (Memo.length m);
  Alcotest.(check (option string)) "hit" (Some (String.make 32 'o'))
    (Memo.take m ~tag:"t" [ key; "ctx" ] 32);
  miss "taken once" "t" [ key; "ctx" ] 32;
  let calls = ref 0 in
  let derive () = incr calls; String.make 8 'd' in
  let a = Memo.once m ~tag:"o" [ "x" ] 8 derive in
  let b = Memo.once m ~tag:"o" [ "x" ] 8 derive in
  Alcotest.(check (pair string int))
    "once: derive, then take" (a, 1) (b, !calls);
  Alcotest.(check int) "once leaves nothing behind" 0 (Memo.length m)

(* ---- property tests --------------------------------------------------------- *)

let qc name gen prop = QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count:200 gen prop)

(* message lengths on either side of each rate (72: SHA3-512, 136:
   SHAKE256, 168: SHAKE128), plus arbitrary unaligned ones *)
let sponge_case =
  let open QCheck.Gen in
  let len =
    oneof
      [ oneofl [ 0; 1; 7; 8; 9; 71; 72; 73; 135; 136; 137; 167; 168; 169 ];
        int_range 0 400 ]
  in
  let msg = len >>= fun n -> string_size ~gen:char (return n) in
  let splits = list_size (int_range 1 8) (int_range 0 400) in
  QCheck.make
    ~print:(fun (m, s) ->
      Printf.sprintf "len=%d splits=[%s]" (String.length m)
        (String.concat ";" (List.map string_of_int s)))
    (pair msg splits)

let squeeze_split_prop (xof, one_shot) (m, splits) =
  let x = xof m in
  let parts = List.map (Keccak.Xof.squeeze x) splits in
  String.concat "" parts = one_shot m (List.fold_left ( + ) 0 splits)

(* parts that are empty, short and odd, one lane longer or shorter
   than the SHAKE256 rate, or arbitrary, so that parts start at every
   lane alignment and straddle the 136-byte rate boundary *)
let parts_case =
  let open QCheck.Gen in
  let part_len =
    oneof [ return 0; int_range 1 9; oneofl [ 135; 136; 137 ]; int_range 0 300 ]
  in
  let part = part_len >>= fun n -> string_size ~gen:char (return n) in
  QCheck.make
    ~print:(fun (ps, n) ->
      Printf.sprintf "parts=[%s] n=%d"
        (String.concat ";" (List.map (fun p -> string_of_int (String.length p)) ps))
        n)
    (pair (list_size (int_range 0 8) part) (int_range 0 300))

(* [Drbg.uniform] and [Drbg.float] as [Drbg.generate] defines them:
   30-bit words from 4 bytes with rejection, 53-bit floats from 7 *)
let reference_uniform g n =
  let limit = (1 lsl 30) - ((1 lsl 30) mod n) in
  let rec go () =
    let b = Drbg.generate g 4 in
    let v =
      (Char.code b.[0] lsl 22) lor (Char.code b.[1] lsl 14)
      lor (Char.code b.[2] lsl 6) lor (Char.code b.[3] lsr 2)
    in
    if v < limit then v mod n else go ()
  in
  go ()

let reference_float g =
  let b = Drbg.generate g 7 in
  let acc = ref 0 in
  String.iter (fun c -> acc := (!acc lsl 8) lor Char.code c) b;
  float_of_int (!acc lsr 3) /. 9007199254740992.0

type draw = Generate of int | Uniform of int | Float

(* draws interleaved with [generate] calls of every length up to past
   the 136-byte rate; n spans 2..2^30, with n just above 2^29, where
   about half of the words are rejected *)
let draws_case =
  let open QCheck.Gen in
  let n =
    oneof
      [ int_range 2 1000;
        int_range ((1 lsl 29) + 1) ((1 lsl 29) + 1000);
        oneofl [ 2; 3; (1 lsl 29) + 1; (1 lsl 30) - 1; 1 lsl 30 ];
        int_range 2 (1 lsl 30) ]
  in
  let draw =
    frequency
      [ (2, map (fun k -> Generate k) (int_range 0 200));
        (4, map (fun n -> Uniform n) n);
        (2, return Float) ]
  in
  QCheck.make
    ~print:(fun (seed, ds) ->
      Printf.sprintf "seed=%S [%s]" seed
        (String.concat "; "
           (List.map
              (function
                | Generate k -> Printf.sprintf "generate %d" k
                | Uniform n -> Printf.sprintf "uniform %d" n
                | Float -> "float")
              ds)))
    (pair (string_size ~gen:printable (int_range 0 8))
       (list_size (int_range 1 60) draw))

let draws_match_generate (seed, ds) =
  let a = Drbg.create ~seed and b = Drbg.create ~seed in
  List.for_all
    (function
      | Generate k -> Drbg.generate a k = Drbg.generate b k
      | Uniform n -> Drbg.uniform a n = reference_uniform b n
      | Float -> Drbg.float a = reference_float b)
    ds

let prop_tests =
  [ qc "hex roundtrip" QCheck.string (fun s -> Bytesx.of_hex (Bytesx.to_hex s) = s);
    qc "xor involution"
      QCheck.(pair (string_of_size (Gen.return 32)) (string_of_size (Gen.return 32)))
      (fun (a, b) -> Bytesx.xor (Bytesx.xor a b) b = a);
    qc "equal_ct agrees with (=)"
      QCheck.(pair small_string small_string)
      (fun (a, b) -> Bytesx.equal_ct a b = (a = b));
    qc "equal_ct sees every one-bit flip"
      QCheck.(triple (string_of_size (Gen.int_range 1 70)) small_nat (int_bound 7))
      (fun (s, pos, bit) ->
        let pos = pos mod String.length s in
        let flipped =
          String.mapi
            (fun i c -> if i = pos then Char.chr (Char.code c lxor (1 lsl bit)) else c)
            s
        in
        Bytesx.equal_ct s (String.init (String.length s) (String.get s))
        && not (Bytesx.equal_ct s flipped));
    qc "shake128 split squeeze = one-shot" sponge_case
      (squeeze_split_prop (Keccak.Xof.shake128, Keccak.shake128));
    qc "shake256 split squeeze = one-shot" sponge_case
      (squeeze_split_prop (Keccak.Xof.shake256, Keccak.shake256));
    qc "shake256_parts = shake256 of the concatenation" parts_case
      (fun (ps, n) ->
        Keccak.shake256_parts ps n = Keccak.shake256 (String.concat "" ps) n);
    qc "sha256 distinct on distinct inputs (no trivial collisions)"
      QCheck.(pair small_string small_string)
      (fun (a, b) -> a = b || Sha256.digest a <> Sha256.digest b);
    qc "hkdf expand length" QCheck.(int_range 1 800)
      (fun n ->
        String.length (Hkdf.expand ~prk:(Sha256.digest "p") ~info:"" n) = n);
    qc "gcm roundtrip random"
      QCheck.(pair small_string small_string)
      (fun (pt, ad) ->
        let k = Aes_gcm.of_secret (Sha256.digest "key") in
        let nonce = String.sub (Sha256.digest "nonce") 0 12 in
        Aes_gcm.open_ k ~nonce ~ad (Aes_gcm.seal k ~nonce ~ad pt) = Some pt);
    qc "drbg uniform in range" QCheck.(int_range 1 1000)
      (fun n ->
        let rng = Drbg.create ~seed:(string_of_int n) in
        let v = Drbg.uniform rng n in
        v >= 0 && v < n);
    qc "drbg uniform and float = their generate definitions" draws_case
      draws_match_generate ]

let suites =
  [ ( "crypto",
      [ Alcotest.test_case "sha2 vectors" `Quick test_sha2;
        Alcotest.test_case "sha2 streaming" `Quick test_sha2_streaming;
        Alcotest.test_case "sha256 context words" `Quick
          test_sha256_context_words;
        Alcotest.test_case "sha3/shake vectors" `Quick test_sha3;
        Alcotest.test_case "shake incremental" `Quick test_shake_incremental;
        Alcotest.test_case "sha3/shake multi-block" `Quick test_sha3_multi_block;
        Alcotest.test_case "shake256 parts in place" `Quick
          test_shake_parts_in_place;
        Alcotest.test_case "sha3/shake known answers" `Quick test_keccak_kats;
        Alcotest.test_case "hmac vectors" `Quick test_hmac;
        Alcotest.test_case "hkdf rfc5869" `Quick test_hkdf;
        Alcotest.test_case "aes fips-197" `Quick test_aes;
        Alcotest.test_case "aes ctr" `Quick test_aes_ctr;
        Alcotest.test_case "aes-gcm vectors + tamper" `Quick test_gcm;
        Alcotest.test_case "drbg" `Quick test_drbg;
        Alcotest.test_case "memo take-once" `Quick test_memo ]
      @ prop_tests ) ]
