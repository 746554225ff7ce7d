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
   sizes and behaviour, not security — see the .mli.) *)

(* SHAKE256 of "sim:" ^ label ^ ":" ^ String.concat "|" parts, absorbed
   part by part so that multi-kilobyte public keys are never copied *)
let xof label parts len =
  let rec sep = function
    | ([] | [ _ ]) as last -> last
    | p :: rest -> p :: "|" :: sep rest
  in
  Crypto.Keccak.shake256_parts ("sim:" :: label :: ":" :: sep parts) len

let seed_len = 32

let kem_keygen rng ~pk_len =
  let seed = Crypto.Drbg.generate rng seed_len in
  let pk = xof "kem-pk" [ seed ] pk_len in
  (pk, seed)

let kem_encaps rng ~pk ~ct_len ~ss_len =
  if ct_len < seed_len then invalid_arg "Sim_suites.kem_encaps: ct too short";
  let r = Crypto.Drbg.generate rng seed_len in
  let mask = xof "kem-mask" [ pk ] seed_len in
  let tail = xof "kem-tail" [ pk; r ] (ct_len - seed_len) in
  let ct = Crypto.Bytesx.xor r mask ^ tail in
  let ss = xof "kem-ss" [ pk; r ] ss_len in
  (ct, ss)

let kem_decaps ~sk ~ct ~pk_len ~ss_len =
  let pk = xof "kem-pk" [ sk ] pk_len in
  let mask = xof "kem-mask" [ pk ] seed_len in
  let r = Crypto.Bytesx.xor (String.sub ct 0 seed_len) mask in
  let tail = xof "kem-tail" [ pk; r ] (String.length ct - seed_len) in
  if Crypto.Bytesx.equal_ct tail (String.sub ct seed_len (String.length ct - seed_len))
  then xof "kem-ss" [ pk; r ] ss_len
  else xof "kem-reject" [ sk; ct ] ss_len

let sig_keygen rng ~pk_len =
  let seed = Crypto.Drbg.generate rng seed_len in
  let pk = xof "sig-pk" [ seed ] pk_len in
  (pk, seed)

let sig_sign ~sk ~msg ~sig_len ~pk_len =
  if sig_len < seed_len then invalid_arg "Sim_suites.sig_sign: sig too short";
  let pk = xof "sig-pk" [ sk ] pk_len in
  let tag = xof "sig-tag" [ pk; msg ] seed_len in
  tag ^ xof "sig-tail" [ tag ] (sig_len - seed_len)

let sig_verify ~pk ~msg signature =
  let len = String.length signature in
  len >= seed_len
  &&
  let tag = xof "sig-tag" [ pk; msg ] seed_len in
  Crypto.Bytesx.equal_ct signature (tag ^ xof "sig-tail" [ tag ] (len - seed_len))
