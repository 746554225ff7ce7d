(** TLS wire-format helpers: length-prefixed vectors, record and
    handshake-message framing (RFC 8446 section 3-5), and a bounds-checked
    cursor for parsing. A message is a list of parts concatenated once,
    and is read in place. *)

exception Decode_error of string

val vec8 : string list -> string list
val vec16 : string list -> string list
val vec24 : string list -> string list
(** Length-prefixed opaque vectors: [vec16 parts] is the 2-byte length
    of [parts], then [parts].
    @raise Decode_error if the vector is too long for its prefix. *)

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

val handshake : Handshake_type.t -> string list -> string
(** A handshake message with its 4-byte type+length header, built from
    the body's parts in one allocation. *)

(** A cursor over a range of one string. A read past its end raises
    [Decode_error "short read: want <n> have <m>"]. *)
module Reader : sig
  type t

  val of_string : string -> t
  val remaining : t -> int
  val u8 : t -> int
  val u16 : t -> int
  val u24 : t -> int
  val u32 : t -> int

  val bytes : t -> int -> string

  val sub8 : t -> t
  val sub16 : t -> t
  val sub24 : t -> t
  (** The next vector's body as a cursor over the same bytes; only
      [bytes] and [vec8]/[vec16]/[vec24] copy. *)

  val vec8 : t -> string
  val vec16 : t -> string
  val vec24 : t -> string
  val expect_end : t -> unit
end
