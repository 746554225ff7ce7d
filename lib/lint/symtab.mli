(** Whole-project symbol table for the dataflow rules.

    Maps every toplevel [let] in every parsed structure to a qualified
    name ([Lib.Module.name], following dune's wrapped-library layout
    where [lib/tls/handshake.ml] is the module [Tls.Handshake]), records
    per-file [module K = Key_schedule] aliases and toplevel opens, and
    resolves dotted identifier occurrences back to definitions, local
    opens included. Resolution is purely syntactic — shadowing by local
    bindings is the caller's concern — and unresolved names are treated
    as external (stdlib) by the rules built on top. *)

type def = {
  d_qual : string; (* "Tls.Handshake.open_ticket" *)
  d_name : string; (* "open_ticket" *)
  d_scope : string; (* enclosing module path: "Tls.Handshake" *)
  d_params : string list; (* fun-chain parameter names, "_" if complex *)
  d_body : Parsetree.expression; (* body with the fun chain stripped *)
  d_loc : Location.t;
  d_file : string;
}

type t

val build : Source.t list -> t

val find : t -> string -> def option
(** Look up a definition by qualified name. *)

val defs : t -> def list
(** All definitions, sorted by qualified name (deterministic). *)

val resolve :
  t -> file:string -> ?scope:string -> ?loc:Location.t -> string ->
  string option
(** [resolve t ~file ~scope ~loc "K.hash"] — the qualified definition a
    dotted identifier occurring at [loc] in [file], inside the module
    path [scope] (the referencing definition's [d_scope]; the file's
    own module by default), refers to. It tries, in order, the file's
    module aliases, the modules opened locally around [loc] ([let open
    M in], [M.(e)], [M.[...]]) innermost first, the enclosing modules
    innermost first, the modules the file opens at toplevel, sibling
    modules of the same library, and cross-library wrapped names.
    Without [loc] no local open applies. [None] means "not defined in
    the tree" (stdlib or external). *)

val heads : t -> file:string -> Parsetree.expression -> string list
(** The stdlib names an identifier expression in [file] may denote: its
    spelling (see {!Walk.ident}), then that name qualified by each
    module opened locally around it, innermost first — so
    [Hashtbl.(replace c k v)] heads ["replace"; "Hashtbl.replace"].
    [[]] for any other expression. Every rule matches its stdlib heads
    against this list, so a local open hides no call. *)

val head_in :
  t -> file:string -> string list -> Parsetree.expression -> string option
(** The first of {!heads} that is in the list. *)

val lib_of_path : string -> string option
(** Wrapped-library toplevel module implied by a path, e.g.
    [lib/pqc/kyber.ml -> Some "Pqc"]. *)

val module_name_of_file : string -> string
