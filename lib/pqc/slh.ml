(* SPHINCS+ (round-3 structure / FIPS 205 lineage) over SHAKE256,
   "simple" thash. See the .mli for the instantiation note. The layered
   construction: FORS signs the message digest, a WOTS+/XMSS hypertree
   certifies the FORS key.

   Tree indices span up to 64 bits (h - h/d = 64 for the 256f set), so
   they are carried as Int64 throughout. *)

type params = {
  name : string;
  n : int; (* hash output bytes *)
  h : int; (* total hypertree height *)
  d : int; (* hypertree layers *)
  a : int; (* FORS tree height *)
  k : int; (* FORS tree count *)
}

(* w = 16 throughout (so digits are 4 bits), as in every NIST set *)
let w = 16

let sphincs128f = { name = "sphincs128f"; n = 16; h = 66; d = 22; a = 6; k = 33 }
let sphincs192f = { name = "sphincs192f"; n = 24; h = 66; d = 22; a = 8; k = 33 }
let sphincs256f = { name = "sphincs256f"; n = 32; h = 68; d = 17; a = 9; k = 35 }
let sphincs128s = { name = "sphincs128s"; n = 16; h = 63; d = 7; a = 12; k = 14 }
let sphincs192s = { name = "sphincs192s"; n = 24; h = 63; d = 7; a = 14; k = 17 }
let sphincs256s = { name = "sphincs256s"; n = 32; h = 64; d = 8; a = 14; k = 22 }

let name p = p.name
let hp p = p.h / p.d
let len1 p = 2 * p.n (* base-16 digits of an n-byte value *)
let len2 = 3 (* checksum digits; 3 for every parameter set at w = 16 *)
let len p = len1 p + len2
let public_key_bytes p = 2 * p.n
let secret_key_bytes p = 4 * p.n
let signature_bytes p = p.n * (1 + (p.k * (p.a + 1)) + p.h + (p.d * len p))

let digest_bytes p =
  (((p.k * p.a) + 7) / 8) + ((p.h - hp p + 7) / 8) + ((hp p + 7) / 8)

(* ---- addresses ------------------------------------------------------------ *)

module Adrs = struct
  (* a 32-byte mutable address *)
  let create () = Bytes.make 32 '\000'
  let copy = Bytes.copy
  let set_layer t v = Crypto.Bytesx.set_u32_be t 0 v

  let set_tree t (v : int64) =
    (* 12-byte field: 4 zero bytes + 64-bit value *)
    Crypto.Bytesx.set_u32_be t 4 0;
    Crypto.Bytesx.set_u64_be t 8 v

  let set_type t v =
    Crypto.Bytesx.set_u32_be t 16 v;
    (* changing the type zeroes the remaining words, per the spec *)
    Crypto.Bytesx.set_u32_be t 20 0;
    Crypto.Bytesx.set_u32_be t 24 0;
    Crypto.Bytesx.set_u32_be t 28 0

  let set_keypair t v = Crypto.Bytesx.set_u32_be t 20 v
  let set_chain t v = Crypto.Bytesx.set_u32_be t 24 v
  let set_hash t v = Crypto.Bytesx.set_u32_be t 28 v
  let set_tree_height = set_chain
  let set_tree_index = set_hash
  let to_string = Bytes.to_string

  (* address types *)
  let wots_hash = 0
  let wots_pk = 1
  let tree = 2
  let fors_tree = 3
  let fors_roots = 4
  let wots_prf = 5
  let fors_prf = 6
end

(* ---- tweakable hashes (shake-simple) --------------------------------------- *)

let thash p ~pk_seed adrs parts =
  Crypto.Keccak.shake256_parts (pk_seed :: Adrs.to_string adrs :: parts) p.n

let prf p ~pk_seed ~sk_seed adrs = thash p ~pk_seed adrs [ sk_seed ]

let prf_msg p ~sk_prf ~opt_rand msg =
  Crypto.Keccak.shake256_parts [ sk_prf; opt_rand; msg ] p.n

let h_msg p ~r ~pk_seed ~pk_root msg =
  Crypto.Keccak.shake256_parts [ r; pk_seed; pk_root; msg ] (digest_bytes p)

(* ---- bit plumbing ----------------------------------------------------------- *)

(* big-endian 4-bit digits of a byte string *)
let base_w16 s count =
  Array.init count (fun i ->
      let b = Char.code s.[i / 2] in
      if i land 1 = 0 then b lsr 4 else b land 0xf)

(* interpret up to 8 bytes big-endian as an Int64 *)
let int64_of_bytes s off bytes =
  let v = ref 0L in
  for i = 0 to bytes - 1 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code s.[off + i]))
  done;
  !v

let mask64 bits = if bits >= 64 then -1L else Int64.sub (Int64.shift_left 1L bits) 1L

(* ---- WOTS+ ------------------------------------------------------------------ *)

let chain p ~pk_seed adrs x start steps =
  let x = ref x in
  for j = start to start + steps - 1 do
    Adrs.set_hash adrs j;
    x := thash p ~pk_seed adrs [ !x ]
  done;
  !x

(* message digits plus checksum digits *)
let wots_digits p msg_n =
  let d1 = base_w16 msg_n (len1 p) in
  let csum = Array.fold_left (fun acc d -> acc + (w - 1 - d)) 0 d1 in
  (* left-shift so the checksum occupies the top bits of len2 digits *)
  let csum = csum lsl 4 (* (8 - (len2 * lg_w) mod 8) mod 8 = 4 *) in
  let csum_bytes =
    String.init 2 (fun i -> Char.chr ((csum lsr (8 * (1 - i))) land 0xff))
  in
  Array.append d1 (base_w16 csum_bytes len2)

let wots_sk p ~pk_seed ~sk_seed adrs i =
  let sk_adrs = Adrs.copy adrs in
  Adrs.set_type sk_adrs Adrs.wots_prf;
  Bytes.blit adrs 20 sk_adrs 20 4 (* keep the keypair word *);
  Adrs.set_chain sk_adrs i;
  Adrs.set_hash sk_adrs 0;
  prf p ~pk_seed ~sk_seed sk_adrs

let wots_pk_gen p ~pk_seed ~sk_seed adrs =
  (* adrs arrives typed WOTS_HASH with layer/tree/keypair set *)
  let tmp =
    List.init (len p) (fun i ->
        let sk = wots_sk p ~pk_seed ~sk_seed adrs i in
        Adrs.set_chain adrs i;
        chain p ~pk_seed adrs sk 0 (w - 1))
  in
  let pk_adrs = Adrs.copy adrs in
  Adrs.set_type pk_adrs Adrs.wots_pk;
  Bytes.blit adrs 20 pk_adrs 20 4;
  thash p ~pk_seed pk_adrs tmp

let wots_sign p ~pk_seed ~sk_seed adrs msg_n =
  let digits = wots_digits p msg_n in
  String.concat ""
    (List.init (len p) (fun i ->
         let sk = wots_sk p ~pk_seed ~sk_seed adrs i in
         Adrs.set_chain adrs i;
         chain p ~pk_seed adrs sk 0 digits.(i)))

let wots_pk_from_sig p ~pk_seed adrs msg_n signature =
  let digits = wots_digits p msg_n in
  let tmp =
    List.init (len p) (fun i ->
        let part = String.sub signature (i * p.n) p.n in
        Adrs.set_chain adrs i;
        chain p ~pk_seed adrs part digits.(i) (w - 1 - digits.(i)))
  in
  let pk_adrs = Adrs.copy adrs in
  Adrs.set_type pk_adrs Adrs.wots_pk;
  Bytes.blit adrs 20 pk_adrs 20 4;
  thash p ~pk_seed pk_adrs tmp

(* ---- XMSS subtrees ------------------------------------------------------------ *)

(* node [idx] at height [z] of the subtree rooted in (layer, tree) *)
let rec xmss_node p ~pk_seed ~sk_seed ~layer ~tree idx z =
  if z = 0 then begin
    let adrs = Adrs.create () in
    Adrs.set_layer adrs layer;
    Adrs.set_tree adrs tree;
    Adrs.set_type adrs Adrs.wots_hash;
    Adrs.set_keypair adrs idx;
    wots_pk_gen p ~pk_seed ~sk_seed adrs
  end
  else begin
    let left = xmss_node p ~pk_seed ~sk_seed ~layer ~tree (2 * idx) (z - 1) in
    let right = xmss_node p ~pk_seed ~sk_seed ~layer ~tree ((2 * idx) + 1) (z - 1) in
    let adrs = Adrs.create () in
    Adrs.set_layer adrs layer;
    Adrs.set_tree adrs tree;
    Adrs.set_type adrs Adrs.tree;
    Adrs.set_tree_height adrs z;
    Adrs.set_tree_index adrs idx;
    thash p ~pk_seed adrs [ left; right ]
  end

let xmss_sign p ~pk_seed ~sk_seed ~layer ~tree ~leaf msg_n =
  let adrs = Adrs.create () in
  Adrs.set_layer adrs layer;
  Adrs.set_tree adrs tree;
  Adrs.set_type adrs Adrs.wots_hash;
  Adrs.set_keypair adrs leaf;
  let wots = wots_sign p ~pk_seed ~sk_seed adrs msg_n in
  let auth =
    String.concat ""
      (List.init (hp p) (fun j ->
           xmss_node p ~pk_seed ~sk_seed ~layer ~tree ((leaf lsr j) lxor 1) j))
  in
  wots ^ auth

let xmss_pk_from_sig p ~pk_seed ~layer ~tree ~leaf msg_n signature =
  let adrs = Adrs.create () in
  Adrs.set_layer adrs layer;
  Adrs.set_tree adrs tree;
  Adrs.set_type adrs Adrs.wots_hash;
  Adrs.set_keypair adrs leaf;
  let wots = String.sub signature 0 (len p * p.n) in
  let node = ref (wots_pk_from_sig p ~pk_seed adrs msg_n wots) in
  let idx = ref leaf in
  for j = 0 to hp p - 1 do
    let sibling = String.sub signature ((len p * p.n) + (j * p.n)) p.n in
    let tree_adrs = Adrs.create () in
    Adrs.set_layer tree_adrs layer;
    Adrs.set_tree tree_adrs tree;
    Adrs.set_type tree_adrs Adrs.tree;
    Adrs.set_tree_height tree_adrs (j + 1);
    Adrs.set_tree_index tree_adrs (!idx lsr 1);
    node :=
      (if !idx land 1 = 0 then thash p ~pk_seed tree_adrs [ !node; sibling ]
       else thash p ~pk_seed tree_adrs [ sibling; !node ]);
    idx := !idx lsr 1
  done;
  !node

(* ---- hypertree ------------------------------------------------------------------ *)

let ht_sign p ~pk_seed ~sk_seed ~tree_idx ~leaf_idx root =
  let sig_buf = Buffer.create (p.d * (len p + hp p) * p.n) in
  let msg = ref root and tree = ref tree_idx and leaf = ref leaf_idx in
  for layer = 0 to p.d - 1 do
    Buffer.add_string sig_buf
      (xmss_sign p ~pk_seed ~sk_seed ~layer ~tree:!tree ~leaf:!leaf !msg);
    if layer < p.d - 1 then begin
      msg := xmss_node p ~pk_seed ~sk_seed ~layer ~tree:!tree 0 (hp p);
      leaf := Int64.to_int (Int64.logand !tree (mask64 (hp p)));
      tree := Int64.shift_right_logical !tree (hp p)
    end
  done;
  Buffer.contents sig_buf

let ht_verify p ~pk_seed ~pk_root ~tree_idx ~leaf_idx root signature =
  let xmss_sig_bytes = (len p + hp p) * p.n in
  let node = ref root and tree = ref tree_idx and leaf = ref leaf_idx in
  for layer = 0 to p.d - 1 do
    let part = String.sub signature (layer * xmss_sig_bytes) xmss_sig_bytes in
    node :=
      xmss_pk_from_sig p ~pk_seed ~layer ~tree:!tree ~leaf:!leaf !node part;
    leaf := Int64.to_int (Int64.logand !tree (mask64 (hp p)));
    tree := Int64.shift_right_logical !tree (hp p)
  done;
  Crypto.Bytesx.equal_ct !node pk_root

(* ---- FORS -------------------------------------------------------------------- *)

let fors_sk p ~pk_seed ~sk_seed ~tree_idx ~leaf_idx idx =
  let adrs = Adrs.create () in
  Adrs.set_layer adrs 0;
  Adrs.set_tree adrs tree_idx;
  Adrs.set_type adrs Adrs.fors_prf;
  Adrs.set_keypair adrs leaf_idx;
  Adrs.set_tree_height adrs 0;
  Adrs.set_tree_index adrs idx;
  prf p ~pk_seed ~sk_seed adrs

let rec fors_node p ~pk_seed ~sk_seed ~tree_idx ~leaf_idx idx z =
  let adrs = Adrs.create () in
  Adrs.set_layer adrs 0;
  Adrs.set_tree adrs tree_idx;
  Adrs.set_type adrs Adrs.fors_tree;
  Adrs.set_keypair adrs leaf_idx;
  if z = 0 then begin
    let sk = fors_sk p ~pk_seed ~sk_seed ~tree_idx ~leaf_idx idx in
    Adrs.set_tree_height adrs 0;
    Adrs.set_tree_index adrs idx;
    thash p ~pk_seed adrs [ sk ]
  end
  else begin
    let left = fors_node p ~pk_seed ~sk_seed ~tree_idx ~leaf_idx (2 * idx) (z - 1) in
    let right =
      fors_node p ~pk_seed ~sk_seed ~tree_idx ~leaf_idx ((2 * idx) + 1) (z - 1)
    in
    Adrs.set_tree_height adrs z;
    Adrs.set_tree_index adrs idx;
    thash p ~pk_seed adrs [ left; right ]
  end

(* FORS indices: k groups of a bits from the digest, big-endian bit order *)
let fors_indices p md =
  let bit i = (Char.code md.[i lsr 3] lsr (7 - (i land 7))) land 1 in
  Array.init p.k (fun i ->
      let v = ref 0 in
      for j = 0 to p.a - 1 do
        v := (!v lsl 1) lor bit ((i * p.a) + j)
      done;
      !v)

let fors_sign p ~pk_seed ~sk_seed ~tree_idx ~leaf_idx md =
  let indices = fors_indices p md in
  let buf = Buffer.create (p.k * (p.a + 1) * p.n) in
  Array.iteri
    (fun i idx ->
      let off = i lsl p.a in
      Buffer.add_string buf
        (fors_sk p ~pk_seed ~sk_seed ~tree_idx ~leaf_idx (off + idx));
      for j = 0 to p.a - 1 do
        let sibling_idx = (off lsr j) + ((idx lsr j) lxor 1) in
        Buffer.add_string buf
          (fors_node p ~pk_seed ~sk_seed ~tree_idx ~leaf_idx sibling_idx j)
      done)
    indices;
  Buffer.contents buf

let fors_pk_from_sig p ~pk_seed ~tree_idx ~leaf_idx md signature =
  let indices = fors_indices p md in
  let unit_bytes = (p.a + 1) * p.n in
  let roots =
    Array.to_list
      (Array.mapi
         (fun i idx ->
           let base = i * unit_bytes in
           let sk = String.sub signature base p.n in
           let adrs = Adrs.create () in
           Adrs.set_layer adrs 0;
           Adrs.set_tree adrs tree_idx;
           Adrs.set_type adrs Adrs.fors_tree;
           Adrs.set_keypair adrs leaf_idx;
           let off = i lsl p.a in
           Adrs.set_tree_height adrs 0;
           Adrs.set_tree_index adrs (off + idx);
           let node = ref (thash p ~pk_seed adrs [ sk ]) in
           let pos = ref (off + idx) in
           for j = 0 to p.a - 1 do
             let sibling = String.sub signature (base + ((j + 1) * p.n)) p.n in
             Adrs.set_tree_height adrs (j + 1);
             Adrs.set_tree_index adrs (!pos lsr 1);
             node :=
               (if !pos land 1 = 0 then thash p ~pk_seed adrs [ !node; sibling ]
                else thash p ~pk_seed adrs [ sibling; !node ]);
             pos := !pos lsr 1
           done;
           !node)
         indices)
  in
  let roots_adrs = Adrs.create () in
  Adrs.set_layer roots_adrs 0;
  Adrs.set_tree roots_adrs tree_idx;
  Adrs.set_type roots_adrs Adrs.fors_roots;
  Adrs.set_keypair roots_adrs leaf_idx;
  thash p ~pk_seed roots_adrs roots

(* ---- top level -------------------------------------------------------------------- *)

let split_digest p digest =
  let md_bytes = ((p.k * p.a) + 7) / 8 in
  let tree_bits = p.h - hp p in
  let tree_bytes = (tree_bits + 7) / 8 in
  let leaf_bytes = (hp p + 7) / 8 in
  let md = String.sub digest 0 md_bytes in
  let tree_idx =
    Int64.logand (int64_of_bytes digest md_bytes tree_bytes) (mask64 tree_bits)
  in
  let leaf_idx =
    Int64.to_int
      (Int64.logand
         (int64_of_bytes digest (md_bytes + tree_bytes) leaf_bytes)
         (mask64 (hp p)))
  in
  (md, tree_idx, leaf_idx)

let keygen p rng =
  let sk_seed = Crypto.Drbg.generate rng p.n in
  let sk_prf = Crypto.Drbg.generate rng p.n in
  let pk_seed = Crypto.Drbg.generate rng p.n in
  let pk_root =
    xmss_node p ~pk_seed ~sk_seed ~layer:(p.d - 1) ~tree:0L 0 (hp p)
  in
  (pk_seed ^ pk_root, sk_seed ^ sk_prf ^ pk_seed ^ pk_root)

let parse_sk p sk =
  if String.length sk <> secret_key_bytes p then invalid_arg "Slh: bad sk";
  ( String.sub sk 0 p.n,
    String.sub sk p.n p.n,
    String.sub sk (2 * p.n) p.n,
    String.sub sk (3 * p.n) p.n )

let sign p sk msg =
  let sk_seed, sk_prf, pk_seed, pk_root = parse_sk p sk in
  let r = prf_msg p ~sk_prf ~opt_rand:pk_seed msg in
  let digest = h_msg p ~r ~pk_seed ~pk_root msg in
  let md, tree_idx, leaf_idx = split_digest p digest in
  let fors = fors_sign p ~pk_seed ~sk_seed ~tree_idx ~leaf_idx md in
  let fors_pk = fors_pk_from_sig p ~pk_seed ~tree_idx ~leaf_idx md fors in
  let ht = ht_sign p ~pk_seed ~sk_seed ~tree_idx ~leaf_idx fors_pk in
  r ^ fors ^ ht

let verify p pk ~msg signature =
  String.length pk = public_key_bytes p
  && String.length signature = signature_bytes p
  &&
  let pk_seed = String.sub pk 0 p.n and pk_root = String.sub pk p.n p.n in
  let r = String.sub signature 0 p.n in
  let digest = h_msg p ~r ~pk_seed ~pk_root msg in
  let md, tree_idx, leaf_idx = split_digest p digest in
  let fors_bytes = p.k * (p.a + 1) * p.n in
  let fors = String.sub signature p.n fors_bytes in
  let ht =
    String.sub signature (p.n + fors_bytes)
      (String.length signature - p.n - fors_bytes)
  in
  let fors_pk = fors_pk_from_sig p ~pk_seed ~tree_idx ~leaf_idx md fors in
  ht_verify p ~pk_seed ~pk_root ~tree_idx ~leaf_idx fors_pk ht
