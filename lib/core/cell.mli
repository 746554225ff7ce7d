(** Cell kinds: what the campaign pipeline needs to know about one kind
    of campaign cell. {!Exec} (fault injection, cache lookup,
    progress, spec-order recording), {!Result_cache} (key, find, store)
    and {!Metrics} (deduplication and label disambiguation) are each
    written once against this record; a kind adds only its own
    {!Metrics} summary and JSON on top. *)

type ('spec, 'outcome) kind = {
  tag : string;
      (** distinct per kind: names the kind's {!Result_cache} entries
          (file extension and magic), so the untyped Marshal payloads of
          two kinds can never read each other *)
  label : 'spec -> string;
      (** short human-readable name for progress lines, fault injection
          and artifact keys *)
  fingerprint : 'spec -> string;
      (** stable rendering of every outcome-relevant field: the cell's
          identity in the artifact and the pre-image of its cache key *)
  run : ?trace:Trace.Buf.t -> 'spec -> 'outcome;
      (** execute the cell; deterministic in the spec alone *)
  traced : bool;
      (** whether [run] is handed a per-cell trace buffer when the
          campaign records a trace *)
}

val standard : (Experiment.spec, Experiment.outcome) kind
(** One KA x SA x scenario run of sequential handshakes (Tables 2-4, 6,
    7 and the ablations). Traced. *)

val farm : (Experiment.farm_spec, Experiment.farm_outcome) kind
(** One open-loop server-farm run (Table 5). Not traced: one cell spans
    thousands of handshakes, so a per-cell event buffer would dwarf the
    trace store. *)
