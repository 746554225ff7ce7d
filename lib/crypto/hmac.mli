(** HMAC (RFC 2104) over a pluggable hash. *)

type hash = {
  digest_size : int;
  block_size : int;
  digest : string -> string;
  digest_parts : string list -> string;
      (** [digest_parts ps] is [digest (String.concat "" ps)], fed part by
          part into one context instead of concatenated first. *)
}
(** A one-shot hash description; see {!sha256}. *)

val sha256 : hash

val hmac : hash -> key:string -> string -> string
(** [hmac h ~key msg] is HMAC-H(key, msg). *)
