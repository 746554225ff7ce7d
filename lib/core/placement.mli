(** The two computations behind the signature-placement study (Table 7,
    rendered by {!Catalog}): the flights-to-deliver column showing the
    chain-size x initcwnd cliff, and the per-level chain breakdown. *)

val flights_to_deliver : tcp:Netsim.Tcp.config -> int -> int
(** Smallest number of slow-start flights that delivers [bytes]:
    flight [n] carries [init_cwnd * 2^(n-1)] full segments, so this is
    the least [n] with [mss * init_cwnd * (2^n - 1) >= bytes]. 0 for
    empty payloads. *)

val chain_stats :
  profile:Tls.Chain_profile.t -> string -> Tls.Chain.level_stat list
(** Per-level breakdown of exactly the (cached, mocked) credentials the
    campaign cells serve for this SA name, without running a cell. *)
