(** Running rules over sources and applying the [lint.allow]
    attributes. *)

val rules : Rule.t list
(** The full catalog, in display order. *)

val find_rule : string -> Rule.t option

val run : ?rules:Rule.t list -> Source.t list -> Diag.t list
(** [run ?rules sources] checks the sources, drops findings covered by
    an attribute scope, appends malformed-suppression [LINT]
    diagnostics, and returns the result in deterministic (file, line,
    col, rule) order. *)
