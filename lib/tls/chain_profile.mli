(** Named certificate-hierarchy shapes for the signature-placement study
    (Table 7): which signature algorithm signs at each level of a
    root / intermediates / leaf chain.

    The leaf is always signed for the campaign's SA dimension; a profile
    only fixes the CA levels, so profiles compose with the KA x SA grid.
    The [default] profile is the pre-chain behaviour — a lone leaf under
    a raw CA key of the campaign SA — and is the identity everywhere:
    cache keys, fingerprints and artifacts are byte-identical to before
    the chain subsystem existed. *)

type level =
  | Leaf_alg  (** this level uses the campaign's (leaf) signature algorithm *)
  | Named of string  (** a fixed registry algorithm, by paper spelling *)

type t = {
  name : string;  (** stable key: cache keys, fingerprints, CLI *)
  label : string;  (** short human label for table rows *)
  intermediates : level list;
      (** issuing algorithm of each intermediate, closest-to-leaf first;
          these certificates ride in the server's Certificate message *)
  root : level;
      (** trust-anchor algorithm; the root certificate never crosses the
          wire (RFC 8446 section 4.4.2 allows omitting it) *)
  description : string;
}

val default : t
(** Leaf-only, anchor keyed with the campaign SA: today's behaviour. *)

val all : t list
(** [default] first, then the study profiles ([classical-shape],
    [mldsa-all], [slhdsa-root], [mixed-acme]). *)

val find : string -> t
(** @raise Invalid_argument on unknown names, listing the known ones. *)

val is_default : t -> bool

val depth : t -> int
(** Number of hierarchy levels including the unsent root (leaf-only = 2). *)
