(** Impaired simplex paths and full-duplex links (tc-netem semantics):
    Bernoulli loss, fixed one-way delay and a token-rate bandwidth limit
    with a FIFO queue. A passive tap sees every packet that survives
    loss, with the timestamp at which its last bit passes the fiber. *)

type netem = {
  loss : float;  (** packet loss probability, 0..1 *)
  loss_towards : string option;
      (** apply loss only to packets addressed to this host (netem on one
          egress interface, as in the paper's testbed); [None] = both
          directions *)
  delay_s : float;  (** one-way propagation delay, seconds *)
  jitter_s : float;
      (** uniform delay variation (tc-netem's second delay parameter);
          crossing delays reorder packets *)
  rate_bps : float;  (** link rate, bits per second *)
}

val ideal : netem
(** The paper's testbed: direct 10 Gbit/s fiber, no loss, ~0 delay. *)

type t

val create :
  Engine.t ->
  Crypto.Drbg.t ->
  netem ->
  tap:(float -> Packet.t -> unit) ->
  t
(** The tap runs for every delivered-or-in-flight packet (the paper's
    timestamper host observes the fiber itself). *)

val send : t -> Packet.t -> deliver:(Packet.t -> unit) -> unit
(** Queue a packet in the direction implied by its src/dst; [deliver]
    fires at arrival time unless the packet is lost. *)

val stats_lost : t -> int
