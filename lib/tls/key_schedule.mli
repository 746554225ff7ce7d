(** The TLS 1.3 key schedule (RFC 8446 section 7.1) on HKDF-SHA256,
    including HKDF-Expand-Label and the Finished MAC.

    Every derivation runs through a {!Crypto.Memo.t}. The two endpoints
    of one connection pass the memo they share, so each value is derived
    once per connection: the second endpoint to need it takes the
    first's output when the inputs are equal. A derivation only a
    connection makes takes [~memo]; one that other callers make too
    takes [?memo], and leaving it out derives alone. Outputs are the
    same bytes either way. *)

type secrets = {
  client_handshake_traffic : string;
  server_handshake_traffic : string;
  master : string;
}

val digest_size : int
(** 32: the output size of the cipher-suite hash, SHA-256 for
    TLS_AES_128_GCM_SHA256. *)

val hkdf_expand_label :
  ?memo:Crypto.Memo.t ->
  secret:string ->
  label:string ->
  context:string ->
  int ->
  string

val empty_hash : string
(** Transcript hash of the empty string (Derive-Secret's "" context). *)

val early_secret : ?memo:Crypto.Memo.t -> ?psk:string -> unit -> string
(** HKDF-Extract(0, PSK) — the top of the key-schedule diagram. Without
    [?psk] this is the full-handshake early secret (ikm all-zero), a
    constant. *)

val binder_key : memo:Crypto.Memo.t -> early_secret:string -> string
(** Derive-Secret(early, "res binder", "") for resumption PSKs. *)

val binder_mac :
  memo:Crypto.Memo.t ->
  binder_key:string ->
  truncated_transcript_hash:string ->
  string
(** The PskBinderEntry MAC (section 4.2.11.2): a Finished-style HMAC over
    the hash of the ClientHello truncated before the binders list. *)

val client_early_traffic :
  memo:Crypto.Memo.t ->
  early_secret:string ->
  client_hello_hash:string ->
  string
(** Derive-Secret(early, "c e traffic", CH) — keys 0-RTT application data. *)

val handshake_secrets :
  ?memo:Crypto.Memo.t ->
  ?psk:string ->
  shared_secret:string ->
  hello_transcript_hash:string ->
  unit ->
  secrets
(** Early secret (PSK when resuming, none otherwise) -> handshake secret
    -> traffic secrets and the master secret, exactly as the RFC's
    diagram. The no-PSK output is byte-identical to the historical
    hard-coded [ikm:zeros] path. *)

type traffic_keys = { key : string; iv : string }

val traffic_keys : ?memo:Crypto.Memo.t -> string -> traffic_keys
(** AEAD key/IV from a traffic secret (AES-128-GCM sizes). *)

val verify_data : memo:Crypto.Memo.t -> base_key:string -> string -> string
(** [verify_data ~memo ~base_key transcript_hash] is the Finished MAC
    (section 4.4.4) under the finished key of [base_key], a handshake
    traffic secret. *)

val server_application_traffic :
  memo:Crypto.Memo.t -> master:string -> string -> string
(** [server_application_traffic ~memo ~master finished_transcript_hash]:
    Derive-Secret(master, "s ap traffic", transcript through the server
    Finished), which protects the NewSessionTicket. *)

val finished_mac : traffic_secret:string -> transcript_hash:string -> string
(** {!verify_data} outside a connection. *)

val application_secrets :
  master:string -> finished_transcript_hash:string -> string * string
(** [(client_app_traffic, server_app_traffic)], outside a connection. *)

val resumption_master :
  memo:Crypto.Memo.t ->
  master:string ->
  finished_transcript_hash:string ->
  string
(** Derive-Secret(master, "res master", transcript incl. client Finished). *)

val resumption_psk :
  memo:Crypto.Memo.t ->
  resumption_master:string ->
  ticket_nonce:string ->
  string
(** The PSK bound to one NewSessionTicket: HKDF-Expand-Label(res master,
    "resumption", ticket_nonce) (section 4.6.1). *)
