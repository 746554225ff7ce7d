(* Deterministic mock KEM/signature with exact artifact sizes.

   KEM construction: sk is a 32-byte seed; pk = XOF(seed, "pk").
   Encapsulation draws 32 random bytes r; the ciphertext is
   [r XOR XOF(pk,"mask")] followed by a deterministic tail bound to
   (pk, r); the shared secret is XOF(pk || r). Decapsulation re-derives
   pk from the seed, recovers r, recomputes the tail and falls back to an
   implicit-rejection secret when it mismatches — mirroring how real FO
   KEMs behave on corrupt input.

   Signature construction: pk = XOF(seed, "pk"); a signature is a 32-byte
   tag = XOF(pk || msg) plus a deterministic tail. Verification recomputes
   both from public data. (Consequently anyone can "sign": these provide
   sizes and behaviour, not security — see the .mli.)

   What a checker re-derives goes through the memo: key generation puts
   the public key, encapsulation the mask, the whole ciphertext and the
   secret, and signing the whole signature; decapsulation and
   verification take an entry when their inputs are equal. A checker
   that takes a ciphertext or signature compares it whole with the one
   received; one that finds nothing compares the tail's XOF output with
   the received bytes block by block, building no tail. *)
[@@@lint.kernel
  "with_tail's buffer is created locally at its full length, written \
   only by a checked blit and Keccak.shake256_parts_into, which checks \
   its range, and unsafe_to_string takes it after its last write"]

(* "sim:" ^ label ^ ":" ^ String.concat "|" parts as parts, absorbed one
   by one so that multi-kilobyte public keys are never copied *)
let xof_input label parts =
  let rec sep = function
    | ([] | [ _ ]) as last -> last
    | p :: rest -> p :: "|" :: sep rest
  in
  "sim:" :: label :: ":" :: sep parts

let xof label parts len =
  Crypto.Keccak.shake256_parts (xof_input label parts) len

(* the producer's side: derive and put *)
let derive memo label parts len =
  let out = xof label parts len in
  Crypto.Memo.put memo ~tag:label parts out;
  out

(* the checker's side: take, or derive without putting *)
let rederive memo label parts len =
  match Crypto.Memo.take memo ~tag:label parts len with
  | Some out -> out
  | None -> xof label parts len

let seed_len = 32

(* [head], a [seed_len]-byte prefix, then the XOF of [label] and [parts]
   up to [len] bytes, squeezed into the output's own buffer *)
let with_tail head label parts len =
  let b = Bytes.create len in
  Bytes.blit_string head 0 b 0 seed_len;
  Crypto.Keccak.shake256_parts_into (xof_input label parts) b seed_len
    (len - seed_len);
  Bytes.unsafe_to_string b

(* does [s] continue after its first [seed_len] bytes with the XOF of
   [label] and [parts]? *)
let tail_matches label parts s =
  Crypto.Keccak.shake256_parts_equal (xof_input label parts) s seed_len
    (String.length s - seed_len)

let kem_keygen memo rng ~pk_len =
  let seed = Crypto.Drbg.generate rng seed_len in
  let pk = derive memo "kem-pk" [ seed ] pk_len in
  (pk, seed)

let kem_encaps memo rng ~pk ~ct_len ~ss_len =
  if ct_len < seed_len then invalid_arg "Sim_suites.kem_encaps: ct too short";
  let r = Crypto.Drbg.generate rng seed_len in
  let mask = derive memo "kem-mask" [ pk ] seed_len in
  let ct = with_tail (Crypto.Bytesx.xor r mask) "kem-tail" [ pk; r ] ct_len in
  Crypto.Memo.put memo ~tag:"kem-ct" [ pk; r ] ct;
  let ss = derive memo "kem-ss" [ pk; r ] ss_len in
  (ct, ss)

(* a ciphertext of the wrong length is rejected like a corrupt one: the
   tail is an XOF output, so a truncated ciphertext would otherwise
   carry a valid prefix of it *)
let kem_decaps memo ~sk ~ct ~pk_len ~ct_len ~ss_len =
  let reject () = xof "kem-reject" [ sk; ct ] ss_len in
  if String.length ct <> ct_len then reject ()
  else
    let pk = rederive memo "kem-pk" [ sk ] pk_len in
    let mask = rederive memo "kem-mask" [ pk ] seed_len in
    let r = Crypto.Bytesx.xor (String.sub ct 0 seed_len) mask in
    let valid =
      match Crypto.Memo.take memo ~tag:"kem-ct" [ pk; r ] ct_len with
      | Some sent -> Crypto.Bytesx.equal_ct sent ct
      | None -> tail_matches "kem-tail" [ pk; r ] ct
    in
    if valid then rederive memo "kem-ss" [ pk; r ] ss_len else reject ()

let sig_keygen memo rng ~pk_len =
  let seed = Crypto.Drbg.generate rng seed_len in
  let pk = derive memo "sig-pk" [ seed ] pk_len in
  (pk, seed)

let sig_sign memo ~sk ~msg ~sig_len ~pk_len =
  if sig_len < seed_len then invalid_arg "Sim_suites.sig_sign: sig too short";
  let pk = rederive memo "sig-pk" [ sk ] pk_len in
  let tag = xof "sig-tag" [ pk; msg ] seed_len in
  let signature = with_tail tag "sig-tail" [ tag ] sig_len in
  Crypto.Memo.put memo ~tag:"sig" [ pk; msg ] signature;
  signature

(* as for ciphertexts, a signature of the wrong length is rejected
   before any comparison; the tag and the tail are both checked,
   whatever the first comparison finds *)
let sig_verify memo ~pk ~msg ~sig_len signature =
  String.length signature = sig_len
  &&
  match Crypto.Memo.take memo ~tag:"sig" [ pk; msg ] sig_len with
  | Some signed -> Crypto.Bytesx.equal_ct signed signature
  | None ->
    let tag = xof "sig-tag" [ pk; msg ] seed_len in
    let tag_ok =
      Crypto.Bytesx.equal_ct tag (String.sub signature 0 seed_len)
    in
    let tail_ok = tail_matches "sig-tail" [ tag ] signature in
    tag_ok && tail_ok
