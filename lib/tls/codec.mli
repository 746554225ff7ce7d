(** Byte-stream plumbing between TCP and the handshake logic: TLS record
    parsing/decryption, handshake-message reassembly, and fragmentation
    of outgoing messages into records.

    Inbound, what TCP delivers is queued as it arrives and moved into a
    record queue one record at a time. Each record is read and, if
    protected, opened where it lies there; its handshake bytes go from
    there to the reassembly queue, from which a complete message is
    taken as a string. Once a record's or message's header is in, its
    queue grows at most once, to its size; a header announcing more than
    {!max_record_body} or {!max_handshake_body} bytes is a decode error
    before any buffer grows. *)

val max_record_body : int
(** 2^14 + 256: the largest TLSCiphertext body, RFC 8446 section 5.2. *)

val max_handshake_body : int
(** 2^17: the largest handshake message body accepted. Every registry
    algorithm's Certificate message, in every chain profile, fits. *)

module Inbound : sig
  type t
  (** Record parser + handshake reassembler for one read direction. *)

  type event =
    | Handshake_message of string  (** complete message, header included *)
    | Application_data of string
        (** decrypted early (0-RTT) or application payload fragment *)
    | Change_cipher_spec
    | Need_more_data

  val create : unit -> t
  val feed : t -> string -> unit
  (** Queue bytes as TCP delivered them; they are copied into the record
      queue only when {!next} reads their record. *)

  val enable_decryption : t -> Record.t -> unit
  (** All subsequent application_data records are opened with this state. *)

  val release : t -> unit
  (** Shrink the buffers to the bytes not yet consumed: for an endpoint
      whose handshake is over. *)

  val next : t -> event
  (** Pull-driven: the state machine asks for the next event only when it
      is ready to process it (CPU-serialized), so records that arrive
      before the traffic keys exist stay buffered and undecrypted.
      @raise Wire.Decode_error on malformed input, an over-long record
      or message, or failed decryption. *)
end

val max_fragment : int
(** 2^14, RFC 8446 section 5.1. *)

val fragment_plaintext : string -> string
(** Wrap a handshake message into plaintext records of at most
    {!max_fragment} bytes each, laid out in one allocation of their
    exact size. An empty message yields [""]. *)

val fragment_encrypted : Record.t -> string -> string
(** Wrap into encrypted application_data records, advancing the write
    state; laid out like {!fragment_plaintext}, each record sealed into
    place with {!Record.seal_into}. *)

val fragment_app : Record.t -> string -> string
(** Like {!fragment_encrypted} but with inner type application_data —
    0-RTT and post-handshake payload bytes. *)
