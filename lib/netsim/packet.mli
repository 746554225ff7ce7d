(** Simulated packets: TCP segments with realistic wire-size accounting.

    Wire bytes model what the paper's MoonGen timestamper counted on the
    fiber: Ethernet framing plus IPv4 plus TCP with the timestamp option
    (and the full option set on SYNs). *)

type flags = { syn : bool; ack : bool; fin : bool }

type t = {
  id : int;
  src : string;  (** host name, for traces *)
  dst : string;
  flags : flags;
  seq : int;  (** TCP sequence number (byte offset) *)
  ack_seq : int;
  payload : string;
  marks : (int * string) list;
      (** TLS messages that begin in this segment, as (absolute stream
          offset, label); carried for the passive tap, which in the real
          testbed reads the same information from plaintext record
          headers. *)
}

val plain_flags : flags
val syn_flags : flags
val synack_flags : flags
val ack_flags : flags
val fin_flags : flags

val header_bytes : t -> int
val wire_bytes : t -> int
val payload_len : t -> int
val describe : t -> string
