(** One measurement run: sequential TLS handshakes for a fixed KA x SA
    pair under a fixed network scenario, for (virtual) 60 seconds —
    exactly the paper's campaign unit (section 4).

    Runs are deterministic: the same parameters and seed give the same
    samples bit for bit. By default algorithms are the size-exact mocked
    ones (see {!Pqc.Kem.mocked}); pass [~real_crypto:true] to run the
    actual Kyber/Dilithium/RSA/ECC implementations (slower in host time,
    identical in every simulated quantity — asserted by the test suite). *)

type sample = {
  part_a_ms : float;  (** CH -> SH on the tap *)
  part_b_ms : float;  (** SH -> client Finished *)
  total_ms : float;  (** CH -> client Finished *)
  iteration_ms : float;  (** full loop iteration including harness gap *)
  client_bytes : int;  (** wire bytes incl. headers, up to completion *)
  server_bytes : int;
  client_pkts : int;
  server_pkts : int;
  fast_retransmissions : int;  (** both directions, dup-ACK-driven *)
  timeout_retransmissions : int;  (** both directions, RTO / SYN / SYN-ACK *)
  rtt_samples : int;  (** completed round-trip measurements, both sides *)
  resumed : bool;  (** this connection resumed with a PSK ticket *)
  early_data_bytes : int;  (** 0-RTT bytes the server accepted *)
}

type outcome = {
  samples : sample list;
  handshakes_per_minute : int;
      (** per-minute handshake rate: the raw count scaled by
          [60 / duration_s], or extrapolated from the mean iteration
          time when the sample cap was hit first. *)
  client_cpu_ms : float;  (** mean CPU cost per handshake, all libraries *)
  server_cpu_ms : float;
  client_ledger : (string * float) list;
      (** per-library share of client CPU, fraction of total, desc. *)
  server_ledger : (string * float) list;
  client_cpu_charges : int;
      (** CPU charge events on the host over the whole run — harness
          scheduler pressure, surfaced in the metrics artifact *)
  server_cpu_charges : int;
}
(** A cell's raw measurements. Reports read the summary {!Exec} makes
    of them where the cell ran ({!Metrics.cell_data}), as the metrics
    artifact does, so one module decides what a cell's median is. *)

type spec = {
  sp_buffering : Tls.Config.buffering;
  sp_scenario : Scenario.t;
  sp_duration_s : float;
  sp_max_samples : int option;
  sp_seed : string;
  sp_real_crypto : bool;
  sp_tcp_config : Netsim.Tcp.config;
  sp_buffer_limit : int;
  sp_wrong_key_share : bool;
  sp_mix : Mix.t;
      (** workload mix: the first connection is always full, later ones
          resume (optionally with 0-RTT) per the mix's resumed fraction;
          {!Mix.full} reproduces pre-mix cells bit for bit *)
  sp_chain : Tls.Chain_profile.t;
      (** certificate-hierarchy shape the server deploys;
          {!Tls.Chain_profile.default} reproduces pre-chain cells bit
          for bit *)
  sp_kem : Pqc.Kem.t;
  sp_sig : Pqc.Sigalg.t;
}
(** The full parameter set of one campaign cell, reified so grids can be
    built first and executed later (in parallel, or against the result
    cache). *)

val spec :
  ?buffering:Tls.Config.buffering ->
  ?scenario:Scenario.t ->
  ?duration_s:float ->
  ?max_samples:int ->
  ?seed:string ->
  ?real_crypto:bool ->
  ?tcp_config:Netsim.Tcp.config ->
  ?buffer_limit:int ->
  ?wrong_key_share:bool ->
  ?mix:Mix.t ->
  ?chain:Tls.Chain_profile.t ->
  Pqc.Kem.t ->
  Pqc.Sigalg.t ->
  spec
(** One cell's spec; {!run_spec} executes it. Defaults: optimized
    buffering, no emulation, 60 virtual seconds, mocked crypto,
    Linux-default TCP. The default sample cap is 40 for deterministic
    loss-free runs and 200 under loss; the 60 s budget and the paper's
    handshake counts are preserved by extrapolating from the mean
    iteration time when the cap is reached first. *)

val run_spec : ?trace:Trace.Buf.t -> spec -> outcome
(** Execute one cell. Deterministic in the spec alone: two calls with
    equal specs return structurally identical outcomes, on any domain.
    [?trace] collects every event the cell emits (crypto cpu spans, TCP
    instants, wire occupancy, handshake/message/phase spans) into the
    given buffer via the domain-local sink; the outcome itself is
    unaffected, bit for bit.
    @raise Invalid_argument if not a single handshake completed within
    the duration (possible under heavy impairment, or with a sample /
    duration budget of zero) — the campaign layer ({!Exec}) turns this
    into a recorded cell failure. *)

val spec_label : spec -> string
(** Short human-readable cell name for progress lines. *)

val spec_fingerprint : spec -> string
(** Stable rendering of every outcome-relevant field, used as the
    pre-image of {!Result_cache} keys. Versioned: bump the leading tag
    when the meaning of a field changes. *)

(** {1 Server-farm cells (Table 5)}

    Open-loop N-client x M-server campaigns: arrivals from a
    {!Netsim.Workload} profile at a rate set as a fraction
    ([fa_utilization]) of the farm's CPU-sustainable capacity, each
    handed to the least-loaded of [fa_servers] single-core hosts with
    per-server admission control. Capacity is calibrated per cell from a
    short closed-loop run of the same KA x SA with the
    measurement-harness overhead removed.

    Every farm cell has the same fixed shape: the ideal link (scenario
    [none]), least-connections balancing, 64 in-service plus 128 queued
    connections per server, adversarial clients negotiating
    {!Pqc.Registry.baseline_kem}, and no resumption. *)

type farm_spec = {
  fa_kem : Pqc.Kem.t;
  fa_sig : Pqc.Sigalg.t;
  fa_profile : string;  (** {!Netsim.Workload} name *)
  fa_servers : int;
  fa_utilization : float;  (** offered rate / calibrated capacity *)
  fa_duration_s : float;
  fa_max_connections : int;
      (** cap on total arrivals; enforced by shrinking the window so the
          profile shape is preserved *)
  fa_adv_fraction : float;
      (** section 5.5 at scale: fraction of arrivals that are
          adversarial clients negotiating the x25519 baseline *)
  fa_seed : string;
}

type farm_outcome = {
  fo_capacity_hs_s : float;  (** calibrated farm capacity, handshakes/s *)
  fo_offered_rate : float;  (** mean offered arrival rate, handshakes/s *)
  fo_window_s : float;  (** effective arrival window *)
  fo_offered : int;
  fo_completed : int;
  fo_dropped : int;  (** accept-queue overflows *)
  fo_unfinished : int;  (** still in flight at the drain horizon *)
  fo_latencies_ms : float list;
      (** arrival-to-Finished per completed connection, arrival order *)
  fo_wait_ms : float list;  (** arrival-to-admission, arrival order *)
  fo_server_cpu_ms : float;  (** summed over all server cores *)
  fo_server_busy : float;  (** fraction of total server core-time busy *)
  fo_server_ledger : (string * float) list;
  fo_per_server_completed : int list;
  fo_adv_launched : int;
  fo_adv_completed : int;
  fo_adv_client_bytes : int;
  fo_adv_server_bytes : int;
  fo_benign_client_bytes : int;
  fo_benign_server_bytes : int;
  fo_cal_client_cpu_ms : float;
  fo_cal_server_cpu_ms : float;
  fo_cal_adv_server_cpu_ms : float;
}
(** Summarized, like {!outcome}, into {!Metrics.farm_cell_data}. *)

val farm_spec :
  ?profile:string ->
  ?servers:int ->
  ?utilization:float ->
  ?duration_s:float ->
  ?max_connections:int ->
  ?adv_fraction:float ->
  ?seed:string ->
  Pqc.Kem.t ->
  Pqc.Sigalg.t ->
  farm_spec
(** Defaults: poisson arrivals over 3 servers, 90 % utilization, a 1 s
    window capped at 1200 connections, no adversarial clients.
    @raise Invalid_argument for an unknown profile name. *)

val run_farm_spec : farm_spec -> farm_outcome
(** Execute one farm cell. Deterministic in the spec alone, like
    {!run_spec}: arrivals, per-connection crypto and link draws all
    derive from DRBG forks of [fa_seed].
    @raise Invalid_argument if not a single handshake completed. *)

val farm_spec_label : farm_spec -> string
val farm_spec_fingerprint : farm_spec -> string
