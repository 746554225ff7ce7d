(** First-class signature-algorithm interface: RSA, ECDSA, Dilithium,
    Falcon, SPHINCS+ and composite (hybrid) combinations, all with the
    paper's Table 2b spellings. *)

type keypair = { public : string; secret : string }

type t = {
  name : string;  (** paper spelling, e.g. ["p256_dilithium2"] *)
  level : int;  (** claimed NIST level; 0 marks sub-level-1 RSA *)
  hybrid : bool;
  mocked : bool;  (** size-exact stand-in implementation (see {!mocked}) *)
  sim_suites : bool;
      (** the operations run on {!Sim_suites}: simulated and mocked
          algorithms, which {!share} rebinds *)
  public_key_bytes : int;
  signature_bytes : int;
  keygen : Crypto.Drbg.t -> keypair;
  sign : Crypto.Drbg.t -> secret:string -> string -> string;
  verify : public:string -> msg:string -> string -> bool;
}

val rsa : bits:int -> level:int -> t
(** PKCS#1 v1.5 / SHA-256, named ["rsa:<bits>"]. Key generation returns
    the embedded fixed key for the standard sizes (see {!Crypto.Rsa_keys})
    so that experiments do not pay prime search. *)

val ecdsa : Crypto.Ec.curve -> name:string -> level:int -> t

val of_dilithium : Dilithium.params -> level:int -> t

val of_slh : Slh.params -> level:int -> t

val simulated :
  name:string -> level:int -> public_key_bytes:int -> signature_bytes:int -> t
(** Size-exact simulated signature scheme (Falcon, SPHINCS+). *)

val hybrid : t -> t -> t
(** Composite signatures: both components sign; verification requires
    both. Wire format concatenates with a 2-byte split marker. *)

val mocked : t -> t
(** Size- and name-identical {!Sim_suites} stand-in; see {!Kem.mocked}. *)

val share : Crypto.Memo.t -> t -> t
(** [share memo s] runs [s]'s {!Sim_suites} operations under [memo];
    see {!Kem.share}. Certificate chains and credentials are
    process-wide, so they never hold a shared algorithm. *)
