(** Server credentials (certificate chain + private key), generated once
    per signature algorithm x chain profile and cached: the paper
    pre-provisions one certificate per SA, so certificate generation is
    never part of a measured handshake. The server's Certificate
    message is encoded here once too, and the client's verdict on
    those bytes is computed once with them: a verdict is a pure
    function of the trust anchor, the issuer algorithms and the bytes,
    so a client that receives exactly these bytes takes it, and any
    other message is decoded and walked up to the anchor. The virtual
    CPU time of every level's verification is charged on every
    handshake either way. *)

type t = private {
  chain : Chain.t;
  server_key : Pqc.Sigalg.keypair;
  alg : Pqc.Sigalg.t;  (** the leaf (campaign) signature algorithm *)
  profile : Chain_profile.t;
  certificate : string;
      (** the Certificate handshake message of [chain], encoded once with
          the credentials: it has no per-connection content, so every
          server sends these bytes *)
  verdict : bool;
      (** [Chain.verify_against ~local:chain] of [certificate], decoded *)
}

val get : ?profile:Chain_profile.t -> Pqc.Sigalg.t -> t
(** Cached by algorithm name and chain profile, so mixed-profile
    campaigns never collide on a cached chain; deterministic (the DRBG
    seed is derived from the cache key). [?profile] defaults to
    {!Chain_profile.default}, whose key and seed are byte-identical to
    the pre-chain scheme. *)

val check : t -> string -> Certificate.t list * (unit -> bool)
(** [check t msg] is the client's check of a received Certificate
    message against [t]'s trust anchor and issuer algorithms: the
    certificates, leaf first, and a verdict to take once the
    verification is charged. A message equal to [t.certificate] gives
    [t]'s certificates and [t.verdict]. Any other message is decoded
    now and walked when the verdict is taken.
    @raise Wire.Decode_error when [msg] is not a Certificate message. *)
