(** Campaign observability: a domain-safe registry of counters and
    observation series (harness self-telemetry), per-cell
    distribution summaries, the versioned machine-readable artifact
    behind [pqtls-bench run --metrics], and the drift gates behind
    [pqtls-bench compare].

    Determinism contract: cell summaries derive only from
    {!Experiment.outcome} values, so the serialized artifact is
    byte-identical for any [jobs] and whether cells executed or came
    from the result cache. Volatile telemetry (wall clock, cache hits,
    pool occupancy) lives in the registry only and surfaces via
    {!Exec.health_summary}, never in the artifact. *)

(** {1 Distribution summaries} *)

type dist = {
  d_n : int;  (** sample count *)
  d_mean : float;
  d_stddev : float;  (** sample stddev, 0 for singletons *)
  d_p5 : float;
  d_p25 : float;
  d_p50 : float;
  d_p75 : float;
  d_p95 : float;
  d_p99 : float;
  d_ci_lo : float;  (** deterministic bootstrap 95 % CI of the median *)
  d_ci_hi : float;
}

val dist : seed:string -> float list -> dist
(** Summarize one sample list; [seed] drives the bootstrap resampling
    (callers pass the cell fingerprint plus the metric name, making the
    interval a pure function of the data).
    @raise Invalid_argument on the empty list. *)

type resumption = {
  rs_resumed_n : int;  (** sampled connections that resumed *)
  rs_full_n : int;  (** sampled connections that ran the full handshake *)
  rs_early_data_bytes : int;  (** 0-RTT bytes accepted, summed *)
  rs_resumed_total : dist option;  (** total latency, resumed subset (ms) *)
  rs_full_total : dist option;
  rs_resumed_server_bytes : dist option;
  rs_full_server_bytes : dist option;
}
(** Per-population split of a mixed-workload cell (Table 6): [None]
    dists mean the mix's coin never produced that population within the
    sample budget. *)

type cell_data = {
  cd_handshakes_per_minute : int;
  cd_part_a : dist;  (** latencies in ms *)
  cd_part_b : dist;
  cd_total : dist;
  cd_iteration : dist;
  cd_client_bytes : dist;
  cd_server_bytes : dist;
  cd_client_pkts : dist;
  cd_server_pkts : dist;
  cd_retransmissions : int;  (** summed over every sampled handshake *)
  cd_fast_retx : int;
  cd_timeout_retx : int;
  cd_rtt_samples : int;
  cd_client_cpu_ms : float;
  cd_server_cpu_ms : float;
  cd_client_cpu_charges : int;
  cd_server_cpu_charges : int;
  cd_client_ledger : (string * float) list;
  cd_server_ledger : (string * float) list;
  cd_resumption : resumption option;
      (** [Some] iff the cell ran a non-full {!Mix}; the serialized
          artifact gains its "resumption" key (and the cell its "mix"
          key) only then, so pre-mix artifacts stay byte-identical *)
  cd_chain_levels : (string * string * int * float) list;
      (** per-level certificate-chain breakdown, leaf first: (level,
          issuing SA, CertificateEntry bytes, verify ms). Serialized —
          as the "chain" data block plus the cell's "chain" identity
          key — only for non-default {!Tls.Chain_profile}s, so
          pre-chain artifacts stay byte-identical *)
}

type cell = {
  m_id : string;  (** {!Experiment.spec_fingerprint} — the identity *)
  m_key : string;
      (** {!Experiment.spec_label}, with a deterministic [#k] suffix
          when several specs share a label (ablation grids) *)
  m_kem : string;
  m_sig : string;
  m_scenario : string;
  m_mix : string;  (** {!Mix} name; ["full"] for pre-mix cells *)
  m_chain : string;
      (** {!Tls.Chain_profile} name; ["default"] for pre-chain cells *)
  m_buffering : string;  (** ["push"] or ["buffered"] *)
  m_standard : bool;
      (** everything except kem/sig/scenario/buffering/seed at the
          {!Experiment.spec} defaults — the cells {!against_paper} may
          judge *)
  m_data : (cell_data, string) result;  (** [Error] carries the failure *)
}

(** {1 Farm cells (Table 5)}

    One summary per {!Cell.farm} cell. The artifact gains a
    [farm_cells] key only when a farm campaign ran, so artifacts of the
    existing campaigns stay byte-identical under the same schema
    version; parsers treat the key as optional. *)

type farm_cell_data = {
  fd_capacity_hs_s : float;
  fd_offered_rate : float;
  fd_window_s : float;
  fd_offered : int;
  fd_completed : int;
  fd_dropped : int;
  fd_unfinished : int;
  fd_latency : dist;  (** arrival-to-Finished, ms *)
  fd_latency_p999 : float;
  fd_p99_ci_lo : float;  (** deterministic bootstrap 95 % CI of the p99 *)
  fd_p99_ci_hi : float;
  fd_wait : dist;  (** accept-queue wait, ms *)
  fd_server_cpu_ms : float;
  fd_server_busy : float;
  fd_server_ledger : (string * float) list;
  fd_per_server_completed : int list;
  fd_adv_launched : int;
  fd_adv_completed : int;
  fd_adv_client_bytes : int;
  fd_adv_server_bytes : int;
  fd_benign_client_bytes : int;
  fd_benign_server_bytes : int;
  fd_cal_client_cpu_ms : float;
  fd_cal_server_cpu_ms : float;
  fd_cal_adv_server_cpu_ms : float;
}

type farm_cell = {
  f_id : string;  (** {!Experiment.farm_spec_fingerprint} *)
  f_key : string;
  f_kem : string;
  f_sig : string;
  f_profile : string;
  f_utilization : float;
  f_adv_fraction : float;
  f_data : (farm_cell_data, string) result;
}

(** {1 The registry} *)

type t

val create : unit -> t

val incr : t -> string -> unit
(** Bump a named counter by one (created at 0 on first use). Domain-safe. *)

val counter : t -> string -> int

val observe : t -> string -> float -> unit
(** Append one observation to a named series (e.g. per-cell wall
    seconds). Domain-safe. *)

val observations : t -> string -> float list
(** The series in observation order (arrival order across domains —
    volatile; never serialized into the artifact). *)

val note_experiment : t -> string -> unit
(** Record a campaign name for the artifact header (deduplicated,
    first-seen order). *)

val record_cell :
  t -> Experiment.spec -> (Experiment.outcome, string) result -> unit
(** Summarize one finished {!Cell.standard} cell. Cells of every kind
    are deduplicated on their {!Cell.kind} fingerprint (first recording
    wins) and keyed by their label, with a deterministic [#k] suffix on
    later clashes, so call order — which {!Exec} fixes to spec order —
    fully determines the artifact. *)

val record_farm_cell :
  t ->
  Experiment.farm_spec ->
  (Experiment.farm_outcome, string) result ->
  unit
(** Summarize one finished {!Cell.farm} cell, under the same rules. *)

(** {1 The artifact} *)

val schema_version : string
(** ["pqtls-bench-metrics/1"]; bump when the JSON shape changes. *)

type artifact = {
  a_seed : string;
  a_experiments : string list;
  a_cells : cell list;
  a_farm_cells : farm_cell list;
}

val artifact : t -> seed:string -> artifact
val to_json_string : artifact -> string
(** Deterministic serialization (see {!Json.to_string}): equal
    artifacts render byte-identically. *)

(** {1 Comparison} *)

(** A parsed artifact: per-cell identity plus the flattened numeric
    leaves, which is all the gates need — re-reading a file someone
    else's build wrote never loses precision this way. *)

type p_cell = {
  p_id : string;
  p_key : string;
  p_kem : string;
  p_sig : string;
  p_scenario : string;
  p_buffering : string;  (** [""] for farm cells *)
  p_standard : bool;  (** always [false] for farm cells *)
  p_error : string option;
  p_metrics : (string * float) list;
      (** dotted-path numeric leaves, e.g.
          ["data.latency_ms.total.p50"], in serialization order *)
}

type p_artifact = {
  p_seed : string;
  p_experiments : string list;
  p_cells : p_cell list;
  p_farm_cells : p_cell list;  (** [[]] for pre-farm artifacts *)
}

val of_json_string : string -> (p_artifact, string) result
(** Rejects other schema versions and malformed documents. *)

type row = {
  row_id : string;  (** what rows match on *)
  row_key : string;  (** how issues name the row *)
  row_error : string option;  (** [Some] for a failed row *)
  row_leaves : (string * float) list;  (** dotted numeric leaves *)
}

val diff_rows :
  ?judged:string list -> rel_tol:float -> row list -> row list -> string list
(** The keyed leaf comparison behind {!diff} and {!Profile.diff}:
    human-readable issues between baseline and candidate rows, empty
    when they agree. Rows match on [row_id]; unmatched rows, ok/failed
    flips (two failed rows agree whatever their messages) and leaves
    missing on either side are issues. [rel_tol] bounds
    [|a - b| / max(|a|, |b|)] per leaf, NaN equal to NaN. [judged]
    restricts the comparison to those leaves (default: all). *)

val diff : ?rel_tol:float -> p_artifact -> p_artifact -> string list
(** {!diff_rows} over every cell of both kinds, matched on [p_id], plus
    a seed mismatch issue. [rel_tol] defaults to [0.] (exact). *)

val against_paper : p_artifact -> int * string list
(** Judge every standard, push-buffered, completed cell against the
    embedded paper tables: Table 2a/2b medians, byte counts and
    handshake rates on the ideal link, and Table 4a/4b total medians
    under the deterministic impairments (bandwidth, delay). Returns
    (comparisons made, issues). Tolerances mirror test/test_core.ml's
    calibration assertions (30 % latency, 10-25 % bytes, 45 % on
    reciprocal-of-latency handshake counts and Table 4 medians);
    illegible (NaN) paper cells and the random-loss scenario columns
    are skipped. *)
