(** TLS 1.3 record protection (RFC 8446 section 5): AES-128-GCM with
    per-record nonces derived from the write IV and sequence number, and
    the inner-plaintext content-type byte. *)

type t
(** One protection direction (a write or read state). *)

val create : Key_schedule.traffic_keys -> t

val create_null : unit -> t
(** Size-preserving null protection for the measurement campaigns: record
    framing, padding and tag length are exact, but no AES is run, so the
    simulator's host time stays independent of flight size. *)

val overhead : int
(** Bytes a record adds to its fragment: header, inner type and tag. *)

val seal : t -> Wire.Content_type.t -> string -> string
(** [seal t ty fragment] is a full TLSCiphertext record (header
    included); advances the sequence number. *)

val seal_into :
  t -> Wire.Content_type.t -> Bytes.t -> int -> string -> int -> int -> unit
(** [seal_into t ty buf pos s off len] writes [seal t ty (String.sub s
    off len)], which is [len + overhead] bytes, to [buf] at [pos],
    without taking the substring. *)

val open_ : t -> string -> (Wire.Content_type.t * string) option
(** Decrypts the body of an application_data record (header excluded);
    [None] on authentication failure. *)

val open_in_place :
  t -> Bytes.t -> int -> int -> (Wire.Content_type.t * int) option
(** [open_in_place t buf off len] opens the record body at [buf.[off ..
    off + len)] where it lies: [Some (ty, n)] leaves the plaintext
    content at [buf.[off .. off + n)], overwriting the ciphertext.
    Under null protection the content is already there, so no byte is
    copied. [None] on authentication failure. *)
