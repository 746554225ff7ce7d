(** TLS 1.3 handshake message codecs (RFC 8446 section 4), carrying the
    fields this study needs and realistic extension framing for the rest
    so that message sizes track a real OpenSSL handshake. Encoders lay a
    message out as one list of parts; decoders read it in place through
    one {!Wire.Reader.t}, read an extension block once and reject a
    repeated type (section 4.2). Decoders raise only {!Wire.Decode_error}. *)

type psk_offer = {
  psk_identity : string;  (** the opaque (STEK-sealed) ticket *)
  psk_obfuscated_age : int;  (** ticket_age_add-obfuscated age, u32 *)
  psk_binder : string;  (** 32-byte HMAC over the truncated CH transcript *)
}

type client_hello = {
  random : string;  (** 32 bytes *)
  session_id : string;  (** 32 bytes of compatibility randomness *)
  group : string;  (** offered (and pre-computed) key-share group name *)
  key_share : string;
  sig_algs : string list;
  psk_offer : psk_offer option;  (** a resumption offer (psk_dhe_ke) *)
  early_data : bool;  (** 0-RTT offered (only meaningful with [psk]) *)
}

type server_hello = {
  sh_random : string;
  sh_session_id : string;
  sh_group : string;
  sh_key_share : string;  (** the KEM ciphertext / server DH share *)
  sh_psk_selected : bool;
      (** pre_shared_key acceptance (selected_identity 0) *)
}

type new_session_ticket = {
  nst_lifetime : int;  (** seconds, u32 *)
  nst_age_add : int;  (** u32 *)
  nst_nonce : string;  (** input to the "resumption" PSK derivation *)
  nst_ticket : string;  (** opaque to the client *)
  nst_max_early_data : int;  (** 0 = ticket does not permit 0-RTT *)
}

type certificate_verify = { cv_algorithm : string; cv_signature : string }

val encode_client_hello : client_hello -> string
(** The full handshake message (header included). With a PSK offer the
    legacy session_ticket stub is dropped and pre_shared_key is appended
    last (RFC 8446 section 4.2.11); the binder must be 32 bytes. *)

val decode_client_hello : string -> client_hello
(** @raise Wire.Decode_error if a pre_shared_key extension is present
    but not last, or if an extension type repeats. *)

val binders_length : int
(** Wire size of the single-entry binders list of a 32-byte binder. *)

val truncated_client_hello : string -> string
(** An encoded ClientHello with a PSK offer minus its binders list: the
    bytes the binder MAC covers (section 4.2.11.2). *)

val close_client_hello : string -> string -> string
(** [close_client_hello truncated binder] appends the binders list of a
    32-byte binder: the encoding of the same offer with that binder. *)

val encode_server_hello : server_hello -> string
val decode_server_hello : string -> server_hello

val encode_encrypted_extensions : ?early_data_accepted:bool -> unit -> string

val ee_early_data_accepted : string -> bool
(** Whether an encoded EncryptedExtensions carries the early_data ack. *)

val encode_certificate_chain : Certificate.t list -> string
(** RFC 8446 section 4.4.2 CertificateEntry list, leaf first, each entry
    with an explicit (empty) per-entry extensions length. *)

val decode_certificate_chain : string -> Certificate.t list
(** @raise Wire.Decode_error on an empty certificate_list. *)

val encode_certificate_verify : certificate_verify -> string
val decode_certificate_verify : string -> certificate_verify

val cv_signed_content : transcript_hash:string -> string
(** The to-be-signed blob of section 4.4.3 (context string + hash). *)

val encode_new_session_ticket : new_session_ticket -> string
val decode_new_session_ticket : string -> new_session_ticket

val encode_end_of_early_data : unit -> string
(** EndOfEarlyData (section 4.5): closes the 0-RTT stream. *)

val encode_finished : string -> string
val decode_finished : string -> string
val handshake_type : string -> Wire.Handshake_type.t
