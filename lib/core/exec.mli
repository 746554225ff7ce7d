(** Campaign execution context: domain count, optional result cache,
    per-cell retry budget, and progress narration. Every campaign in
    {!Catalog}, {!Deviation}, {!Whitebox} and {!Amplification} runs
    through one, built by {!create}; [create ~jobs:1 ()] reproduces the
    historical single-core behaviour bit for bit.

    Every {!Cell.kind} runs through one grid runner: {!cells} and
    {!farm_cells} instantiate it for the two kinds.

    Execution is fault-tolerant end to end: a cell whose experiment
    raises (e.g. zero completed handshakes under 10 % loss) is retried
    with a deterministically reseeded DRBG, and if the attempt budget is
    exhausted the campaign records an {!cell_error} for that cell and
    keeps going — renderers mark the failed cell instead of aborting,
    and the health counters report what happened. *)

type cell_error = {
  ce_message : string;  (** [Printexc.to_string] of the last exception *)
  ce_backtrace : string;  (** backtrace of the last failing attempt *)
  ce_attempts : int;  (** attempts made, [>= 1] *)
  ce_elapsed_s : float;  (** host seconds spent across all attempts *)
}

type cell_result = (Experiment.outcome, cell_error) result

type t = {
  jobs : int;  (** domains used per grid, including the caller's *)
  cache : Result_cache.t option;
  progress : bool;  (** per-cell timing lines on stderr *)
  retries : int;  (** extra attempts granted to a failing cell *)
  fail_cell : string option;
      (** fault injection for tests/CI: any cell whose
          {!Cell.kind} label contains this substring raises on every
          attempt. *)
  started : float;  (** host clock at {!create}, for {!health_summary} *)
  trace : Trace.Store.t option;
      (** when set, every executed cell of a traced {!Cell.kind}
          records its trace into a per-cell buffer; buffers are merged
          into the store in spec order after each grid, bit-identical
          whatever [jobs]. Cache hits contribute empty labelled
          buffers. *)
  metrics : Metrics.t;
      (** always-on observability: per-cell distribution summaries
          recorded in spec order after each {!cells} call (deduplicated
          on the spec fingerprint, so the artifact is bit-identical
          whatever [jobs]), plus volatile self-telemetry, the campaign's
          only counters: [cells_ok], [cells_retried], [cells_failed],
          [cells_executed] and [cells_from_cache], and the [cell_wall_s]
          series, all feeding {!health_summary}. *)
}

val create :
  jobs:int ->
  ?cache_dir:string ->
  ?progress:bool ->
  ?retries:int ->
  ?fail_cell:string ->
  ?trace:Trace.Store.t ->
  unit ->
  t
(** [jobs] is clamped to at least 1; [cache_dir] opens (creating if
    needed) a {!Result_cache} there; [progress] defaults to [false];
    [retries] defaults to [1]; [fail_cell] defaults to no injection;
    [trace] collects per-cell traces (see the field doc). Each call has
    its own metrics registry. Turns on backtrace recording, for
    {!cell_error}. *)

val cells : t -> Experiment.spec list -> cell_result list
(** Evaluate a grid: each cell is served from the cache when possible,
    executed otherwise, sharded across [jobs] domains. Results are in
    input order and bit-identical regardless of [jobs]: cells derive
    independent deterministic seeds, and retry attempt [k] reruns the
    cell with seed ["<seed>#retry<k>"], so even retried and failed cells
    are a pure function of the spec and the budget. A failing cell
    yields [Error] (never cached); completed cells are unaffected.
    Summaries are recorded through {!Metrics.record_cell} in spec
    order. *)

type farm_cell_result = (Experiment.farm_outcome, cell_error) result

val farm_cells : t -> Experiment.farm_spec list -> farm_cell_result list
(** Evaluate a server-farm grid ({!Cell.farm}) under the same contract,
    recording through {!Metrics.record_farm_cell}. Farm cells are never
    traced. *)

val ok_count : t -> int
(** Cells that completed (first try, retry, or cache hit). *)

val retried_count : t -> int
(** Completed cells that needed more than one attempt. *)

val failed_count : t -> int
(** Cells that exhausted the attempt budget. *)

val cache_summary : t -> string option
(** One-line hit/miss totals, when a cache is attached. *)

val health_summary : t -> string
(** One line: cells ok / retried / failed, cache hits when a cache is
    attached, wall time since the context was created, fresh-vs-cached
    cell counts, and total / max per-cell wall time. Wall time is host
    time — print this to stderr to keep reports deterministic. *)
