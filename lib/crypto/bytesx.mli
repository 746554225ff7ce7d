(** Byte-string utilities shared by every primitive in this library.

    All values are immutable [string]s used as byte vectors; the helpers
    here cover hex conversion, integer loads in both endiannesses and
    big-endian stores, XOR, and constant-time comparison. *)

val to_hex : string -> string
(** [to_hex s] is the lowercase hexadecimal rendering of [s]. *)

val of_hex : string -> string
(** [of_hex h] parses a hex string (whitespace allowed).
    @raise Invalid_argument on odd length or non-hex characters. *)

val xor : string -> string -> string
(** [xor a b] is the byte-wise XOR of two equal-length strings.
    @raise Invalid_argument if lengths differ. *)

val equal_ct : string -> string -> bool
(** Constant-time equality: scans both inputs fully before deciding. *)

val get_u32_be : string -> int -> int
val get_u32_le : string -> int -> int
val get_u64_be : string -> int -> int64
val get_u64_le : string -> int -> int64

val set_u32_be : Bytes.t -> int -> int -> unit
val set_u64_be : Bytes.t -> int -> int64 -> unit

val u16_be : int -> string
val u32_be : int -> string
val u64_be : int64 -> string
(** Big-endian encodings of small integers as fresh strings. *)

val concat : string list -> string
(** Alias of [String.concat ""]. *)
