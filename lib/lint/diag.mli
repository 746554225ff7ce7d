(** A single finding: one rule firing at one source location. The
    [symbol] is the enclosing toplevel binding (or module) name, which
    the reports print next to the message. *)

type t = {
  rule : string; (* "D1", "C1", ... *)
  file : string; (* path as the driver saw it *)
  line : int; (* 1-based *)
  col : int; (* 0-based, compiler convention *)
  symbol : string; (* enclosing toplevel binding, "" if none *)
  message : string;
}

val make :
  rule:string -> file:string -> ?symbol:string -> Location.t -> string -> t
(** [make ~rule ~file ?symbol loc msg] positions the finding at the start
    of [loc]. *)

val compare : t -> t -> int
(** Order by file, line, column, rule — report order is deterministic
    whatever order the rules ran in. *)

val to_string : t -> string
(** [file:line:col: [rule] message (in symbol)] — one line, no trailing
    newline. *)
