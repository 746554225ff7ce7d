(** The timestamper: a pcap-like record of every packet the passive tap
    saw, with helpers to locate TLS handshake milestones the way the
    paper's black-box analysis does (CH, SH, client Finished are all
    identifiable without decryption). *)

type entry = { time : float; packet : Packet.t }

type t

val create : unit -> t
val tap : t -> float -> Packet.t -> unit
(** Suitable as the [tap] callback of {!Link.create}. *)

val entries : t -> entry list
(** In capture order. *)

val clear : t -> unit
val length : t -> int

val find_mark : t -> ?after:float -> string -> entry option
(** First capture at/after [after] whose packet carries the given TLS
    message mark. *)
