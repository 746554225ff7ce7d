[@@@lint.kernel "fixture: the single read below is at constant offset 0"]

(* U1 fixture: a reviewed kernel whose only unchecked access is an
   external bound to an unchecked primitive — the annotation is live,
   not stale. Expected finding count: 0. *)

external get32u : string -> int -> int32 = "%caml_string_get32u"

let first s = get32u s 0
