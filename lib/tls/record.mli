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

val seal : t -> Wire.Content_type.t -> string -> string
(** [seal t ty fragment] is a full TLSCiphertext record (header
    included); advances the sequence number. *)

val open_ : t -> string -> (Wire.Content_type.t * string) option
(** Decrypts the body of an application_data record (header excluded);
    [None] on authentication failure. *)
