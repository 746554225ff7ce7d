(** SHA-512 (FIPS 180-4), built on [Int64] lanes. *)

type ctx

val init : unit -> ctx
(** SHA-512 context (64-byte output). *)

val feed : ctx -> string -> unit
val get : ctx -> string
val copy : ctx -> ctx

val digest : string -> string
(** One-shot SHA-512. *)
