(** Minimal JSON for the machine-readable campaign artifacts.

    The printer is deterministic: object fields keep their construction
    order and floats print as the shortest decimal that parses back to
    the same bit pattern, so serializing a value is a pure function —
    the property behind the byte-identical [--metrics] artifacts. NaN
    and infinities (illegible paper cells) serialize as [null], which
    the artifact reader reads back as [nan]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Pretty (two-space indent), newline-terminated, deterministic rendering. *)

val float_repr : float -> string
(** The shortest ["%.*g"] rendering that round-trips through
    [float_of_string]. *)

val parse : string -> (t, string) result
(** Strict parse of one JSON document (rejects trailing input). *)

(** {1 Accessors} — all total; [None] on shape mismatch. *)

val member : string -> t -> t option

val to_int : t option -> int option
val to_str : t option -> string option
val to_bool : t option -> bool option
val to_list : t option -> t list option
