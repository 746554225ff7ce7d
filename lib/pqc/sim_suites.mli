(** Deterministic, size-exact stand-ins for the PQ algorithms this project
    does not implement natively (HQC, BIKE, Falcon, SPHINCS+).

    Rationale (see DESIGN.md section 2): the paper's results for these
    algorithms are a function of (a) exact wire sizes, which we take from
    the NIST submissions / liboqs, and (b) CPU cost, which comes from the
    calibration table in {!Costs}. Faithful decoders (BGF for BIKE,
    Reed-Muller/Reed-Solomon for HQC, Falcon's floating-point Gaussian
    sampler) would add thousands of lines without changing a single
    reproduced number, so these stand-ins provide the *functional*
    contract instead: encapsulation/decapsulation round-trip, signatures
    verify, corrupted inputs are rejected, and every artifact has exactly
    the right length. They offer NO security. *)

(** Each operation takes a {!Crypto.Memo.t}. Key generation puts the
    public key, encapsulation the mask, the whole ciphertext (under the
    public key and its random draw) and the secret, and signing the
    whole signature (under the public key and the message).
    Decapsulation and verification take them when their inputs are
    equal, putting nothing: a taken ciphertext or signature is compared
    whole with the one received, and otherwise the received tail is
    compared with the XOF output block by block, without building it.
    Ciphertexts and signatures are squeezed into their own buffers. The
    two endpoints of one connection pass the memo they share; any other
    caller passes a fresh one. Outputs are the same bytes either way. *)

val kem_keygen :
  Crypto.Memo.t ->
  Crypto.Drbg.t ->
  pk_len:int ->
  (* pk *) string * (* sk *) string

val kem_encaps :
  Crypto.Memo.t ->
  Crypto.Drbg.t ->
  pk:string ->
  ct_len:int ->
  ss_len:int ->
  string * string

val kem_decaps :
  Crypto.Memo.t ->
  sk:string ->
  ct:string ->
  pk_len:int ->
  ct_len:int ->
  ss_len:int ->
  string
(** Implicit rejection: a corrupted ciphertext, or one that is not
    [ct_len] bytes long, gives a pseudorandom secret. *)

val sig_keygen : Crypto.Memo.t -> Crypto.Drbg.t -> pk_len:int -> string * string

val sig_sign :
  Crypto.Memo.t ->
  sk:string ->
  msg:string ->
  sig_len:int ->
  pk_len:int ->
  string

val sig_verify :
  Crypto.Memo.t -> pk:string -> msg:string -> sig_len:int -> string -> bool
(** [false] also for a signature that is not [sig_len] bytes long. *)
