(** A TCP model sufficient for the paper's phenomena: 3-way handshake,
    MSS-sized segmentation, slow start from a configurable initial
    congestion window (Linux default 10, the paper's CWND-overflow lever),
    congestion avoidance, duplicate-ACK fast retransmit, and exponential
    RTO backoff with Linux-like 200 ms minimum / 1 s initial RTO.

    Segmentation follows write boundaries the way a real socket does:
    when the window is open, each [write] is sent immediately (so a flight
    spread over several [write]s occupies more, partially-filled
    segments), while window-blocked bytes coalesce into full MSS
    segments. Section 5.4's extra round trips emerge from exactly this. *)

type config = { init_cwnd_segments : int  (** Linux default 10 *) }

val default_config : config

val mss : int
(** Payload bytes per segment: 1448, as on the testbed. *)

val kernel_cost_ms_per_packet : float
(** CPU charged to the kernel for every packet sent or received. *)

type t

val create_pair :
  Engine.t -> Link.t -> config -> client:Host.t -> server:Host.t -> t * t
(** A client and a server endpoint wired through the same link. *)

val connect : t -> on_established:(unit -> unit) -> unit
(** Client side: run the 3-way handshake. The server side accepts
    implicitly. *)

val on_receive : t -> (string -> unit) -> unit
(** In-order application data delivery (byte-stream chunks). *)

val write_parts : t -> ?marks:(int * string) list -> string list -> unit
(** Queue application data: the concatenation of the parts, sent as one
    write would send it. The strings themselves are queued, not joined
    or copied; each segment is cut from them, and a string is let go
    once every byte of it is acknowledged. [marks] are (offset within
    the concatenation, TLS message label) pairs for the passive tap. *)

val write : t -> ?marks:(int * string) list -> string -> unit
(** [write t ?marks s] is [write_parts t ?marks [ s ]]. *)

val close : t -> unit
(** Send FIN once all queued data is acknowledged. *)

val bytes_sent : t -> int
(** Wire bytes this endpoint put on the link, including headers, pure
    ACKs, retransmissions and handshake segments. *)

val packets_sent : t -> int

val fast_retransmissions : t -> int
(** Duplicate-ACK-driven retransmits (including NewReno partial-ACK
    ones), which cost no timer wait. *)

val timeout_retransmissions : t -> int
(** Timer-driven retransmits: RTO go-back-N plus SYN / SYN-ACK
    handshake retries. Every retransmitted segment is counted by
    exactly one of the two. *)

val rtt_samples : t -> int
(** Completed round-trip measurements this endpoint took (handshake
    RTT plus Karn-filtered data RTTs) — a per-connection round-trip
    counter for the metrics artifact. *)
