(** Intra-tree call graph over [Symtab] definitions.

    An edge [caller -> callee] exists when the body of [caller]
    mentions an identifier that resolves to [callee] — including
    function values passed to higher-order combinators, so closures
    handed to [Pool.map] or [List.iter] keep their call edges. *)

type t

val build : Symtab.t -> t

val uses :
  Symtab.t -> file:string -> ?scope:string -> Parsetree.expression ->
  string list
(** Sorted, duplicate-free definitions an expression of [file] refers
    to, resolved as {!Symtab.resolve} does: the edges {!build} draws
    from a definition's body. *)

val callees : t -> string -> string list
(** Sorted, duplicate-free callee list (empty for unknown callers). *)

val vertices : t -> string list
(** All callers, sorted. *)

val reachable : t -> string list -> (string, unit) Hashtbl.t
(** Transitive closure from the given roots, roots included. *)

val pool_roots : Symtab.t -> string list
(** Qualified names of definitions whose body applies [Pool.map] (the
    domain-pool entry point) — the roots used by rule S2. *)

val to_text : t -> string
(** One ["caller -> callee"] line per edge, deterministic order. *)

val to_dot : t -> string
(** Graphviz rendering of the same edges. *)
