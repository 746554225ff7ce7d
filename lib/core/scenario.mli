(** The emulated network conditions of section 5.4 / Table 4. *)

type t = {
  name : string;  (** short id used in experiment names *)
  label : string;  (** table column heading *)
  netem : Netsim.Link.netem;
}

val no_emulation : t

(** 10 % loss per direction. *)
val high_loss : t

(** 1 Mbit/s. *)
val low_bandwidth : t

(** 1 s RTT. *)
val high_delay : t

(** 10 % loss, 200 ms RTT, 1 Mbit/s (ref [11] of the paper, 15 km). *)
val lte_m : t

(** 4 % loss, 44 ms RTT, 880 Mbit/s (ref [34] of the paper). *)
val five_g : t

val all : t list
(** Table 4 column order. *)
