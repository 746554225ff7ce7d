(** Table 3: white-box (profiled) view of selected KA x SA pairs —
    handshake rate, per-handshake CPU cost per side, packet counts, and
    the per-shared-library CPU distribution the paper derives from Linux
    perf. *)

type row = {
  level : int;
  kem : string;
  sa : string;
  handshakes_per_s : float;
  server_cpu_ms : float;
  client_cpu_ms : float;
  server_pkts : int;
  client_pkts : int;
  server_libs : (string * float) list;  (** fraction of CPU, descending *)
  client_libs : (string * float) list;
}

val paper_pairs : (int * string * string) list
(** The eight pairs shown in the paper's Table 3. *)

val rows :
  seed:string -> exec:Exec.t -> (int * string * string) list ->
  row option list
(** Measure the given pairs through [exec]. The result is aligned with
    the input: [None] marks a pair whose cell failed (after retries), so
    renderers can still show the rest. *)

(** {1 Trace cross-check}

    The white-box ledger and the trace's cpu spans are two recordings of
    the same charges, so their per-library CPU shares must agree to
    float rounding. [trace_checks] compares them side by side for one
    traced cell; the test suite asserts {!max_trace_delta} [< 0.01]. *)

type trace_check = {
  tc_side : string;  (** ["client"] or ["server"] *)
  tc_lib : string;
  tc_whitebox : float;  (** ledger share of that side's CPU, 0..1 *)
  tc_trace : float;  (** cpu-span share recomputed from the trace *)
}

val trace_checks : Experiment.outcome -> Trace.Buf.t -> trace_check list
(** Union of libraries seen by either accounting, both sides; missing
    entries count as [0.]. The buffer must come from tracing the same
    cell that produced the outcome. *)

val max_trace_delta : trace_check list -> float

val render_trace_checks : string -> trace_check list -> string
(** Plain-text comparison table titled with the given string. *)
