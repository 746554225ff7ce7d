(** The rule interface: a named check over one run, which holds the
    whole set of parsed sources. Rules see every file at once so
    project-level properties (like "each [.ml] has an [.mli]", or
    call-graph reachability) are ordinary rules, not special cases in
    the engine. *)

type severity = Error | Warning

(** What every rule of one run reads, built once by {!Engine.run}. *)
type run = {
  sources : Source.t list;
  syms : Symtab.t;  (** the symbol table over every source *)
  scopes : Allow.scope list;  (** the [lint.allow] scopes of every source *)
}

type t = {
  name : string; (* "D1", "C1", ... *)
  severity : severity; (* SARIF level; exit codes treat both the same *)
  synopsis : string; (* one line, shown by `pqtls-lint rules` *)
  doc : string; (* a paragraph, for `rules --json` and SARIF *)
  check : run -> Diag.t list;
}

val severity_string : severity -> string
(** ["error"] / ["warning"] — the SARIF level vocabulary. *)
