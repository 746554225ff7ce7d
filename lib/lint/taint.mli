(** Interprocedural taint analysis for secret key material (rule C2).

    The lattice value of an expression is [Pure] (public), [Tainted]
    (secret-derived), or a structured [Tup]/[Rec] so tuple and record
    components keep independent taint (a KEM [encaps] returns a public
    ciphertext next to a secret shared key).

    Taint is seeded at

    - calls to [Hkdf.extract]/[Hkdf.expand] (every TLS 1.3 secret in
      this tree is an HKDF output),
    - KEM [decaps] results and the second component of [encaps],
    - bindings, parameters and record fields whose name is
      [psk]/[secret]/[binder_key]/[ticket_key]/[stek] or ends in
      [_secret]/[_psk]/[_binder_key]/[_ticket_key],

    and propagated through lets, tuples, records, match bindings and —
    via one-level per-definition summaries computed to fixpoint — calls
    between toplevel definitions anywhere in the tree.

    Sinks (reported in [lib/crypto], [lib/pqc], [lib/tls]): [if]/[match]
    scrutinees and guards, variable-time comparison ([String.equal],
    polymorphic [=], ...), [Printf]/[Format] output, exception
    payloads, and [Hashtbl] keys. [Bytesx.equal_ct] output is public by
    construction; an expression annotated
    [[@lint.declassify "reason"]] is an audited declassification. *)

type tv = Pure | Tainted | Tup of tv list | Rec of (string * tv) list

type summary = {
  s_ret : bool; (* returns secret-derived data with pure arguments *)
  s_arg_to_ret : bool; (* tainted argument taints the result *)
}

type t

val analyse : Symtab.t -> t
(** Compute per-definition summaries to fixpoint (no diagnostics). *)

val summary : t -> string -> summary option
(** Summary of a qualified definition, for tests and debugging. *)

val check_def : t -> Symtab.def -> Diag.t list
(** Re-evaluate one definition with name-seeded parameters, reporting
    every sink a tainted value reaches. *)

val check : t -> Diag.t list
(** [check_def] over every definition in the C2 scope directories. *)

val byte_compares : string list
(** The variable-time byte-string comparisons: [String.equal],
    [Bytes.compare], ... Rule C1 bans them outright in the crypto
    directories; here they are sinks. *)

val poly_compares : string list
(** The polymorphic comparisons ([=], [<>], [compare], ...): a sink
    here, and banned by C1 on a string literal. *)

val secret_name : string -> bool
(** The binding-name seeding predicate (exposed for tests). *)

val is_tainted : tv -> bool
val join : tv -> tv -> tv
