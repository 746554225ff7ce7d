(** X25519 Diffie-Hellman (RFC 7748). *)

val base_point : string
(** The canonical u = 9 base point encoding. *)

val scalar_mult : scalar:string -> point:string -> string
(** [scalar_mult ~scalar ~point] is X25519(k, u); both arguments and the
    result are 32-byte little-endian strings. The scalar is clamped as the
    RFC requires. *)

val public_of_secret : string -> string
(** [scalar_mult ~scalar ~point:base_point]. *)
