(** Multi-certificate hierarchies for the signature-placement study: a
    root / N intermediates / leaf chain where every level carries its own
    {!Pqc.Sigalg.t}, shaped by a {!Chain_profile.t}.

    The wire carries the leaf plus the intermediates (leaf first, RFC 8446
    section 4.4.2 order); the root stays in the trust store as
    [anchor_key]. The [default] profile is a lone CA that signs the leaf:
    CA keygen, server keygen, one signature. *)

type t = {
  certs : Certificate.t list;  (** wire order, leaf first; root not sent *)
  issuers : Pqc.Sigalg.t list;
      (** same length as [certs]: the algorithm that signed each one *)
  leaf_alg : Pqc.Sigalg.t;  (** the campaign SA (signs the handshake) *)
  anchor_key : string;  (** trust-anchor public key (root, or lone CA) *)
}

val make :
  Chain_profile.t ->
  leaf:Pqc.Sigalg.t ->
  Crypto.Drbg.t ->
  t * Pqc.Sigalg.keypair
(** Deterministically generates every level's keypair and issues the
    chain top-down; returns the chain and the leaf (server) keypair. The
    root is [ca.pqtls.example] with no intermediates, else
    [root.pqtls.example].
    CA-level algorithms are wrapped {!Pqc.Sigalg.mocked} whenever the
    leaf algorithm is mocked, keeping mocked==real byte-identity. *)

val leaf : t -> Certificate.t
val wire_certs : t -> Certificate.t list
val issuer_algs : t -> Pqc.Sigalg.t list

val verify_against : local:t -> Certificate.t list -> bool
(** Client-side full-chain verification of a received CertificateEntry
    list against the locally trusted chain: depth must match (truncation
    fails), each level's signature algorithm must match the expected
    placement (wrong-level SA fails), and every signature must verify up
    to [local.anchor_key] (tampering or an unknown root fails). *)

val verify : t -> bool
(** Self-check: [verify_against ~local:t t.certs]. *)

(** Per-level wire-size and verification-CPU breakdown. *)
type level_stat = {
  lv_name : string;  (** ["leaf"], ["int1"], ... *)
  lv_issuer_sa : string;  (** algorithm that signed this certificate *)
  lv_bytes : int;  (** CertificateEntry bytes incl. per-entry framing *)
  lv_verify_ms : float;  (** Table 3 verify cost for the issuing SA *)
}

val levels : t -> level_stat list
val wire_bytes : t -> int
(** Sum of entry bytes — the Certificate-message payload the chain adds. *)
