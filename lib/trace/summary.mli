(** Aggregate "cpu" spans back into the paper's Table 3 quantities.

    Because every simulated CPU charge emits exactly one cpu span
    tagged with its library bucket, summing spans reproduces the
    per-host ledgers that {!Core.Whitebox} reports — the cross-check
    that turns the white-box table into a view over the trace stream. *)

val per_lib : (string, float) Hashtbl.t -> (string * float) list
(** Extract a per-library ms table in the canonical artifact order —
    descending cost, ties by name — so hash-bucket order never escapes
    the producer. [Netsim.Host.ledger] is this over a host's table. *)

val cpu_ms_by_lib : Buf.t -> (string * (string * float) list) list
(** Per track (host), total CPU milliseconds per library, descending by
    cost. Tracks in order of first appearance. *)

val shares : (string * float) list -> (string * float) list
(** Normalize a per-library ms list to fractions of its total. *)

val cpu_shares : Buf.t -> (string * (string * float) list) list
(** {!cpu_ms_by_lib} normalized per track — directly comparable to
    [Experiment.outcome.client_ledger] / [server_ledger]. *)
