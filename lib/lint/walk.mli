(** Small shared helpers over the compiler-libs Parsetree: dotted-path
    extraction, application heads, and an expression iterator that
    tracks the enclosing toplevel binding name (the [symbol] reported in
    diagnostics). *)

val strip_stdlib : string -> string
(** Drop a leading ["Stdlib."] from a dotted path, so explicit and
    implicit stdlib references normalize to the same name. *)

val ident : Parsetree.expression -> string option
(** Dotted path of an identifier expression ("Unix.gettimeofday"), with
    any leading "Stdlib." stripped so [Stdlib.compare] and [compare]
    normalize to the same name. *)

val app_head : Parsetree.expression -> string option
(** [ident] of the function position of an application, or of the
    expression itself when it is a bare identifier. *)

val within : Location.t -> Location.t -> bool
(** [within outer inner]: does [inner] lie inside [outer] (same file)? *)

val string_const : Parsetree.expression -> string option
(** The value of a string-literal expression, if it is one. *)

val in_dir : dir:string -> string -> bool
(** [in_dir ~dir:"lib/crypto" path] — does [path] live under that
    directory? Matches both repo-relative and absolute paths. *)

val iter_expressions :
  Parsetree.structure -> (symbol:string -> Parsetree.expression -> unit) ->
  unit
(** Visit every expression of a structure, passing the name of the
    enclosing toplevel [let] (or ["_"] for destructuring bindings,
    [""] outside any binding). *)
