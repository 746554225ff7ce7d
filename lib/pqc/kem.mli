(** First-class key-agreement interface.

    TLS 1.3 treats every key agreement — (EC)DH, a PQ KEM, or a hybrid —
    as "client sends a key share, server answers with a key share, both
    derive a shared secret". That is exactly a KEM with the server doing
    encapsulation, so everything here is a KEM:

    - real KEMs (Kyber) are used directly;
    - Diffie-Hellman (X25519, P-256/384/521) is wrapped: encapsulation
      generates an ephemeral keypair and the "ciphertext" is its public
      key;
    - hybrids concatenate public keys, ciphertexts and shared secrets in
      the draft-ietf-tls-hybrid-design fashion. *)

type keypair = { public : string; secret : string }

type t = {
  name : string;  (** paper spelling, e.g. ["p256_kyber512"] *)
  level : int;  (** claimed NIST security level, 1..5 *)
  hybrid : bool;
  mocked : bool;  (** size-exact stand-in implementation (see {!mocked}) *)
  sim_suites : bool;
      (** the operations run on {!Sim_suites}: simulated and mocked
          algorithms, which {!share} rebinds *)
  public_key_bytes : int;
  ciphertext_bytes : int;
  shared_secret_bytes : int;
  keygen : Crypto.Drbg.t -> keypair;
  encaps : Crypto.Drbg.t -> string -> string * string;
      (** [encaps rng pk] is [(ciphertext, shared_secret)]. *)
  decaps : string -> string -> string;  (** [decaps secret ct] *)
}

val of_kyber : Kyber.params -> level:int -> t
val x25519 : t
val of_ec_curve : Crypto.Ec.curve -> name:string -> level:int -> t

val simulated :
  name:string ->
  level:int ->
  public_key_bytes:int ->
  ciphertext_bytes:int ->
  shared_secret_bytes:int ->
  t
(** Size-exact simulated KEM (see {!Sim_suites}); functionally a KEM
    (round-trips, detects corruption) but with no security claim. *)

val hybrid : t -> t -> t
(** [hybrid classical pq] concatenates shares and secrets; named
    ["<classical>_<pq>"] as in the paper's tables. *)

val mocked : t -> t
(** A size- and name-identical stand-in whose operations are the cheap
    deterministic {!Sim_suites} ones. Measurement campaigns use mocked
    algorithms so that host time stays flat while every simulated
    quantity (sizes, virtual CPU, latency) is unchanged; the real
    implementations are exercised by the test suite, the examples and
    the microbenchmarks. Idempotent. *)

val share : Crypto.Memo.t -> t -> t
(** [share memo k] runs [k]'s {!Sim_suites} operations under [memo], so
    that the two endpoints of one connection, each holding [share memo
    k] for the memo they share, derive each XOF output once (see
    {!Crypto.Memo}). Every output is the same bytes as [k]'s. Any other
    algorithm is returned unchanged. A shared algorithm belongs to its
    connection: nothing process-wide may hold it. *)
