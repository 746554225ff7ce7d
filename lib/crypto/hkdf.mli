(** HKDF-SHA256 (RFC 5869): extract-then-expand key derivation. *)

val extract : salt:string -> ikm:string -> string
(** [extract ~salt ~ikm] is the PRK; an empty [salt] means a string of
    32 zero bytes, per the RFC. *)

val expand : prk:string -> info:string -> int -> string
(** [expand ~prk ~info len] derives [len] bytes of output keying
    material. @raise Invalid_argument if [len > 255 * 32]. *)
