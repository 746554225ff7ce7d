(** TLS wire-format helpers: length-prefixed vectors, record and
    handshake-message framing (RFC 8446 section 3-5), and a bounds-checked
    cursor for parsing. *)

exception Decode_error of string

val vec8 : string -> string
val vec16 : string -> string
val vec24 : string -> string
(** Length-prefixed opaque vectors.
    @raise Decode_error if the vector is too long for its prefix. *)

val prefix16 : int -> string
val prefix24 : int -> string
(** [prefix16 len] is the length prefix alone of a [len]-byte vector
    ([vec16 s] is [prefix16 (String.length s) ^ s]), so an encoder can
    lay a message out as a list of parts and copy each byte once. *)

val parts_length : string list -> int
(** Total byte count of a list of parts. *)

(** TLS record content types. *)
module Content_type : sig
  type t = Change_cipher_spec | Alert | Handshake | Application_data

  val to_byte : t -> int
  val of_byte : int -> t
end

val record : Content_type.t -> string -> string
(** A TLSPlaintext/TLSCiphertext record with the 5-byte header
    (legacy version 0x0303). *)

val record_header : Content_type.t -> int -> string
(** The 5-byte header of a record whose body is [len] bytes. *)

(** Handshake message types. *)
module Handshake_type : sig
  type t =
    | Client_hello
    | Server_hello
    | New_session_ticket
    | End_of_early_data
    | Encrypted_extensions
    | Certificate
    | Certificate_verify
    | Finished

  val to_byte : t -> int
  val of_byte : int -> t
  val label : t -> string
end

val handshake : Handshake_type.t -> string -> string
(** A handshake message with its 4-byte type+length header. *)

val handshake_parts : Handshake_type.t -> string list -> string
(** [handshake ty (String.concat "" parts)], built in one allocation. *)

module Reader : sig
  type t

  val of_string : string -> t
  val remaining : t -> int
  val u8 : t -> int
  val u16 : t -> int
  val u24 : t -> int
  val u32 : t -> int
  val bytes : t -> int -> string
  val vec8 : t -> string
  val vec16 : t -> string
  val vec24 : t -> string
  val expect_end : t -> unit
end
