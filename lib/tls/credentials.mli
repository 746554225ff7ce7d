(** Server credentials (certificate chain + private key), generated once
    per signature algorithm x chain profile and cached: the paper
    pre-provisions one certificate per SA, so certificate generation is
    never part of a measured handshake. The server's Certificate
    message is encoded here once too; the client still verifies the
    chain it receives on every handshake, and no verdict is cached. *)

type t = {
  chain : Chain.t;
  server_key : Pqc.Sigalg.keypair;
  alg : Pqc.Sigalg.t;  (** the leaf (campaign) signature algorithm *)
  profile : Chain_profile.t;
  certificate : string;
      (** the Certificate handshake message of [chain], encoded once with
          the credentials: it has no per-connection content, so every
          server sends these bytes *)
}

val get : ?profile:Chain_profile.t -> Pqc.Sigalg.t -> t
(** Cached by algorithm name and chain profile, so mixed-profile
    campaigns never collide on a cached chain; deterministic (the DRBG
    seed is derived from the cache key). [?profile] defaults to
    {!Chain_profile.default}, whose key and seed are byte-identical to
    the pre-chain scheme. *)
