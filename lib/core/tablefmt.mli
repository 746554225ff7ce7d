(** Shared plain-text table rendering for campaign reports. *)

val dash : int -> string
(** [dash n] right-aligns an em dash (["—"], 3 bytes of UTF-8, one
    display column) in an [n]-column field — the standard rendering of a
    failed cell. The result is [n + 2] bytes but [n] display columns. *)

val or_dash :
  int ->
  ('b -> string, unit, string) format ->
  ('a -> 'b) ->
  'a option ->
  string
(** [or_dash w fmt f v] prints [f x] with [fmt] when [v = Some x], and is
    [dash w] when [v = None]: one table column of an ok or a failed cell.
    [fmt] must print [w] columns. *)

val failed_suffix : 'a option -> string
(** ["  (cell failed)"] for [None], [""] otherwise: the end of a row
    whose value columns came out of {!or_dash}. *)

val chunks : ('a list -> 'b list) -> 'a list list -> 'b list list
(** [chunks run rows] evaluates a grid declared row by row: it applies
    [run] to [List.concat rows] (one call, so the grid runs and records
    as a whole) and cuts the results, which must align with the input,
    back into rows of the same lengths, in declaration order.
    @raise Invalid_argument if [run] returns fewer results than cells. *)

val fmt_paper : float -> string
(** Paper reference value in 6 columns; NaN (no published value)
    renders as ["   -  "]. *)

val buf_table : string -> string -> string list -> string
(** [buf_table title header rows]: title line, header line, a dash rule
    as wide as the header, then one line per row. *)
