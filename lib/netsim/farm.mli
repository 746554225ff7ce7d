(** N-client x M-server farm orchestration: open-loop arrivals,
    least-connections balancing, per-server concurrency limits and a
    bounded accept queue.

    The farm schedules one event per arrival on the engine at creation
    time and tracks admission / completion; the caller supplies [launch]
    (run one handshake against server [server], call [finished] when its
    client Finished lands) and then drives the engine. CPU queueing
    *behind* admission emerges from {!Host.charge} on the server hosts —
    the farm only decides who gets a slot and when. *)

type config = {
  servers : int;
  max_concurrent : int;  (** in-service handshakes per server *)
  accept_queue : int;  (** waiting connections per server; beyond = drop *)
}

type t

val create :
  engine:Engine.t ->
  config:config ->
  arrivals:float list ->
  launch:(server:int -> conn:int -> finished:(unit -> unit) -> unit) ->
  t
(** [arrivals] are virtual instants (from {!Workload.arrivals}); [conn]
    is the arrival index, the caller's key for per-connection seeds.
    Each arrival goes to the server with the fewest in-flight plus
    queued connections, ties to the lowest index, so the assignment
    stream is a pure function of the arrival stream.
    @raise Invalid_argument on a non-positive server count or limit. *)

val offered : t -> int
val completed : t -> int
val dropped : t -> int
(** Arrivals that found their server's accept queue full. *)

val unfinished : t -> int
(** Admitted or queued but not completed when the engine stopped. *)

val per_server_completed : t -> int array

val latencies_ms : t -> float list
(** Arrival-to-Finished per completed connection (accept-queue wait
    included), in arrival order. *)

val wait_ms : t -> float list
(** Arrival-to-admission per completed connection, in arrival order. *)
