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
  cd_fast_retx : int;
      (** summed over every sampled handshake, like [cd_timeout_retx];
          the artifact's "retransmissions" is their sum *)
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
  cd_chain_levels : Tls.Chain.level_stat list;
      (** per-level certificate-chain breakdown, leaf first, from
          {!Placement.chain_stats} of the spec's SA and chain profile;
          [[]] for the default profile. Serialized — as the "chain" data
          block plus the cell's "chain" identity key — only for
          non-default {!Tls.Chain_profile}s, so pre-chain artifacts stay
          byte-identical *)
}

type cell = {
  m_id : string;  (** {!Experiment.spec_fingerprint} — the identity *)
  m_key : string;
      (** {!Experiment.spec_label}, with a deterministic [#k] suffix
          when several specs share a label (ablation grids) *)
  m_spec : Experiment.spec;
      (** the artifact's identity keys come from it; its "standard" key
          holds when all but kem/sig/scenario/buffering/seed sit at the
          {!Experiment.spec} defaults (the cells {!against_paper} judges) *)
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
  f_spec : Experiment.farm_spec;  (** the artifact's identity keys *)
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

(** {2 Recording cells}

    Recording a cell is two steps. The summary, {!summarize_cell} or
    {!summarize_farm_cell}, draws every bootstrap and computes the
    percentile ladder, mean and stddev of each distribution. It is a
    pure function of the spec and the result, so {!Exec} computes it in
    the {!Pool} task that ran or fetched the cell. The registration,
    {!register}, keeps only deduplication, [#k] labels and order, and
    {!Exec} runs it in spec order on the coordinating domain.

    A registered summary is the one record of its cell: {!Exec} returns
    it to every caller ({!find_cell}, {!find_farm_cell}), so the reports
    print the numbers the artifact serializes, and a fingerprint the
    registry holds is never run again in the same context. *)

type summary
(** One cell's artifact entry, computed but not yet registered. *)

val summarize_cell :
  Experiment.spec -> (Experiment.outcome, string) result -> summary

val summarize_farm_cell :
  Experiment.farm_spec -> (Experiment.farm_outcome, string) result -> summary

val recorded : t -> string -> bool
(** Whether a cell of this {!Cell.kind} fingerprint is registered. *)

val register : t -> summary -> unit
(** Add a summarized cell to the artifact. Cells of every kind are
    deduplicated on their {!Cell.kind} fingerprint (first registration
    wins) and keyed by their label, with a deterministic [#k] suffix on
    later clashes, so call order — which {!Exec} fixes to spec order —
    fully determines the artifact. *)

val find_cell : t -> string -> (cell_data, string) result
(** The [m_data] of the registered {!Cell.standard} cell with this
    fingerprint, as its artifact entry serializes it.
    @raise Not_found when no such cell is registered. *)

val find_farm_cell : t -> string -> (farm_cell_data, string) result
(** {!find_cell} for {!Cell.farm} cells. *)

val record_cell :
  t -> Experiment.spec -> (Experiment.outcome, string) result -> unit
(** Summarize one finished {!Cell.standard} cell and register it, in
    the calling domain. A cell whose fingerprint is already recorded
    is not summarized. *)

val record_farm_cell :
  t ->
  Experiment.farm_spec ->
  (Experiment.farm_outcome, string) result ->
  unit
(** Summarize and register one finished {!Cell.farm} cell, under the
    same rules. *)

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

val json_of_dist : dist -> Json.t
(** The distribution encoder both artifacts share ([n], [mean],
    [stddev], percentiles, bootstrap CI, in that order). *)

(** {1 Comparison}

    One strict reader and one differ serve both versioned artifacts:
    campaign artifacts and {!Profile} artifacts. A parsed artifact is
    its keyed rows (campaign cells then farm cells, or profile ops),
    each with its identity and dotted numeric leaves, which is all the
    gates need. *)

val profile_schema_version : string
(** ["pqtls-bench-profile/1"]. *)

type p_row = {
  p_id : string;  (** what rows match on *)
  p_key : string;  (** how issues name the row *)
  p_error : string option;  (** [Some] for a failed cell *)
  p_kem : string;  (** [""] for profile ops *)
  p_sig : string;
  p_scenario : string;
  p_buffering : string;  (** [""] for farm cells and profile ops *)
  p_standard : bool;
  p_leaves : (string * float) list;
      (** in file order, e.g. ["data.latency_ms.total.p50"], ["time_ms.p50"] *)
}

type p_artifact = { p_schema : string; p_seed : string; p_rows : p_row list }

val of_json_string : string -> (p_artifact, string) result
(** Every field a gate reads is required: [schema], [seed]; a campaign
    artifact's [experiments], [cells] (each with [id key kem sig
    scenario buffering standard] and its [data] object unless it has an
    [error]) and optional [farm_cells] (with [profile] and [policy]
    instead of [buffering standard]); a profile's [ops] (each with
    [name group alg kind samples batch warmup] and the [time_ms] and
    [gc] objects). An op's row id is [op "<name>"
    (<group>/<alg>/<kind>, <samples>x<batch> warmup <warmup>)]. A
    missing or ill-typed field or an unknown schema is an [Error] naming
    it. *)

val diff : ?rel_tol:float -> p_artifact -> p_artifact -> string list
(** Issues between a baseline and a candidate, empty when they agree: a
    seed mismatch, unmatched rows, ok/failed flips and judged leaves
    missing or more than [rel_tol] apart ([|a - b| / max(|a|, |b|)],
    NaN equal to NaN). The schema picks the judged leaves and the
    default [rel_tol]: every leaf at [0.] for campaign artifacts,
    [time_ms.p50] and [gc.minor_words] at [0.25] for profiles.
    @raise Invalid_argument when the schemas differ. *)

val against_paper : p_artifact -> int * string list
(** Judge every standard, push-buffered, completed cell against the
    embedded paper tables: Table 2a/2b medians, byte counts and
    handshake rates on the ideal link, and Table 4a/4b total medians
    under the deterministic impairments (bandwidth, delay). Returns
    (comparisons made, issues). Tolerances mirror test/test_core.ml's
    calibration assertions (30 % latency, 10-25 % bytes, 45 % on
    reciprocal-of-latency handshake counts and Table 4 medians);
    illegible (NaN) paper cells and the random-loss scenario columns
    are skipped.
    @raise Invalid_argument on a profile. *)
