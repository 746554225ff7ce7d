(** Campaign execution context: domain count, optional result cache
    and progress narration. Every campaign in {!Catalog}, {!Deviation},
    {!Whitebox} and {!Amplification}, and the [handshake] command, runs
    through one, built by {!create}; [create ~jobs:1 ()] reproduces the
    historical single-core behaviour bit for bit.

    Every {!Cell.kind} runs through one grid runner: {!cells} and
    {!farm_cells} instantiate it for the two kinds. A context runs each
    distinct cell once; a fingerprint its registry holds is served from
    there.

    Execution is fault-tolerant end to end: when a cell's experiment
    raises (e.g. zero completed handshakes under 10 % loss) the campaign
    records the error's message for that cell and keeps going —
    renderers mark the failed cell instead of aborting, and the health
    counters report what happened. *)

type cell_result = (Metrics.cell_data, string) result
(** A cell's registered summary, the [m_data] of its artifact entry. A
    failed cell's error is [Printexc.to_string] of its exception. *)

type t = {
  jobs : int;  (** domains used per grid, including the caller's *)
  cache : Result_cache.t option;
  progress : bool;  (** per-cell timing lines on stderr *)
  fail_cell : string option;
      (** fault injection for tests/CI: any cell whose
          {!Cell.kind} label contains this substring raises instead of
          running. *)
  started : float;  (** host clock at {!create}, for {!health_summary} *)
  trace : Trace.Store.t option;
      (** when set, every executed cell of a traced {!Cell.kind}
          records its trace into a per-cell buffer; buffers are merged
          into the store in spec order after each grid, bit-identical
          whatever [jobs]. Cache hits contribute empty labelled
          buffers; a cell served from the registry contributes none, so
          a repeated cell appears once. *)
  metrics : Metrics.t;
      (** always-on observability: per-cell distribution summaries,
          each computed in the task that ran or fetched its cell and
          registered in spec order after each {!cells} call
          (deduplicated on the spec fingerprint, so the artifact is
          bit-identical whatever [jobs]), and what {!cells} returns; plus
          volatile self-telemetry, the campaign's only counters:
          [cells_ok], [cells_failed], [cells_executed],
          [cells_from_cache] and [cache_damaged], and the [cell_wall_s]
          series, whose walls include each cell's summary, all feeding
          {!health_summary} and the progress lines. They count distinct
          cells. *)
}

val create :
  jobs:int ->
  ?cache_dir:string ->
  ?progress:bool ->
  ?fail_cell:string ->
  ?trace:Trace.Store.t ->
  unit ->
  t
(** [jobs] is clamped to at least 1; [cache_dir] opens (creating if
    needed) a {!Result_cache} there; [progress] defaults to [false];
    [fail_cell] defaults to no injection; [trace] collects per-cell
    traces (see the field doc). Each call has its own metrics registry.
    Turns on backtrace recording, so an exception that escapes a
    {!Pool} task is re-raised with its backtrace. *)

val cells : t -> Experiment.spec list -> cell_result list
(** Evaluate a grid and return each cell's registered summary, in input
    order and bit-identical regardless of [jobs]: cells derive
    independent deterministic seeds, so even a failed cell is a pure
    function of the spec. A failing cell yields [Error] (never cached).
    Before the fan-out, the cells to run are fixed in spec order: those
    whose fingerprint occurs first in the grid and is not registered in
    [t.metrics]. Each runs once (or comes from the cache) on one of
    [jobs] domains, and its task computes {!Metrics.summarize_cell}, so
    only the summary leaves it. The coordinating domain then
    {!Metrics.register}s the summaries in spec order and reads every
    spec's back with {!Metrics.find_cell}. A spec the registry already
    held is not run nor looked up in the cache, and gets no progress
    line, counter or trace buffer. *)

type farm_cell_result = (Metrics.farm_cell_data, string) result

val farm_cells : t -> Experiment.farm_spec list -> farm_cell_result list
(** Evaluate a server-farm grid ({!Cell.farm}) under the same contract,
    summarizing through {!Metrics.summarize_farm_cell}. Farm cells are
    never traced. *)

val ok_count : t -> int
(** Distinct cells that completed (executed or served from the cache). *)

val failed_count : t -> int
(** Distinct cells whose run raised. *)

val cache_summary : t -> string option
(** One-line hit/miss totals, when a cache is attached:
    [cache: R cells reused, E executed], followed by
    [, D damaged entries] when D entries failed their digest check
    (each is a miss, re-executed and overwritten). *)

val health_summary : t -> string
(** One line: cells ok / failed, cache hits when a cache is
    attached, wall time since the context was created, fresh-vs-cached
    cell counts, and total / max per-cell wall time. Wall time is host
    time — print this to stderr to keep reports deterministic. *)
