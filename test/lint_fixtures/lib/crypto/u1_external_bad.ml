(* U1 fixture: an external bound to an unchecked accessor primitive,
   without a kernel annotation. Expected finding count: 1. *)

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

let lane b i = get64u b (8 * i)
