(** HMAC-SHA256 (RFC 2104). *)

val hmac : key:string -> string -> string
(** [hmac ~key msg] is HMAC-SHA256(key, msg). *)
