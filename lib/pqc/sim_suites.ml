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

   Every XOF output a checker re-derives goes through the memo: key
   generation, encapsulation and signing put what they derived, and
   decapsulation and verification take it when their inputs are equal,
   deriving it themselves otherwise. The checks run on the taken bytes
   exactly as on derived ones. *)

(* SHAKE256 of "sim:" ^ label ^ ":" ^ String.concat "|" parts, absorbed
   part by part so that multi-kilobyte public keys are never copied *)
let xof label parts len =
  let rec sep = function
    | ([] | [ _ ]) as last -> last
    | p :: rest -> p :: "|" :: sep rest
  in
  Crypto.Keccak.shake256_parts ("sim:" :: label :: ":" :: sep parts) len

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

let kem_keygen memo rng ~pk_len =
  let seed = Crypto.Drbg.generate rng seed_len in
  let pk = derive memo "kem-pk" [ seed ] pk_len in
  (pk, seed)

let kem_encaps memo rng ~pk ~ct_len ~ss_len =
  if ct_len < seed_len then invalid_arg "Sim_suites.kem_encaps: ct too short";
  let r = Crypto.Drbg.generate rng seed_len in
  let mask = derive memo "kem-mask" [ pk ] seed_len in
  let tail = derive memo "kem-tail" [ pk; r ] (ct_len - seed_len) in
  let ct = Crypto.Bytesx.xor r mask ^ tail in
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
    let tail = rederive memo "kem-tail" [ pk; r ] (ct_len - seed_len) in
    if Crypto.Bytesx.equal_ct tail (String.sub ct seed_len (ct_len - seed_len))
    then rederive memo "kem-ss" [ pk; r ] ss_len
    else reject ()

let sig_keygen memo rng ~pk_len =
  let seed = Crypto.Drbg.generate rng seed_len in
  let pk = derive memo "sig-pk" [ seed ] pk_len in
  (pk, seed)

let sig_sign memo ~sk ~msg ~sig_len ~pk_len =
  if sig_len < seed_len then invalid_arg "Sim_suites.sig_sign: sig too short";
  let pk = rederive memo "sig-pk" [ sk ] pk_len in
  let tag = derive memo "sig-tag" [ pk; msg ] seed_len in
  tag ^ derive memo "sig-tail" [ tag ] (sig_len - seed_len)

(* as for ciphertexts, a signature of the wrong length is rejected
   before any comparison *)
let sig_verify memo ~pk ~msg ~sig_len signature =
  String.length signature = sig_len
  &&
  let tag = rederive memo "sig-tag" [ pk; msg ] seed_len in
  Crypto.Bytesx.equal_ct signature
    (tag ^ rederive memo "sig-tail" [ tag ] (sig_len - seed_len))
