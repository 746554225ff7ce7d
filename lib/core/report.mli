(** Text renderings of every table and figure in the paper's evaluation,
    with the published value printed next to each reproduced one.
    Each function runs the underlying campaign (virtual 60 s per cell)
    and returns the finished table as a string.

    Every campaign accepts an [exec] context ({!Exec.t}, default a fresh
    {!Exec.sequential} one): the full cell grid is built first and evaluated
    through it, so [~exec:(Exec.create ~jobs:n ())] shards the campaign
    across [n] domains and an attached result cache makes re-runs
    incremental — with output bit-identical to the sequential run. *)

val table2a : ?seed:string -> ?exec:Exec.t -> unit -> string
val table2b : ?seed:string -> ?exec:Exec.t -> unit -> string

(** The Table-2 campaigns as machine-readable CSV (the paper's artifact
    format: columns mirror its latencies.csv plus the published values). *)

val table2a_csv : ?seed:string -> ?exec:Exec.t -> unit -> string

val table2b_csv : ?seed:string -> ?exec:Exec.t -> unit -> string
val table3 : ?seed:string -> ?exec:Exec.t -> unit -> string
val table4a : ?seed:string -> ?exec:Exec.t -> unit -> string
val table4b : ?seed:string -> ?exec:Exec.t -> unit -> string
val figure3 : ?seed:string -> ?exec:Exec.t -> unit -> string
val figure4 : ?seed:string -> ?exec:Exec.t -> unit -> string
val attack : ?seed:string -> ?exec:Exec.t -> unit -> string

val table5 : ?seed:string -> ?exec:Exec.t -> unit -> string
(** Beyond the paper, toward its "server farms would need" projections:
    sustainable handshake capacity and p50/p99/p999 tail latency of an
    N-client x M-server farm under open-loop poisson / ramp /
    flash-crowd arrival profiles, per KA x SA pair, plus the section 5.5
    adversarial client-mix analysis re-run at scale (amplification and
    CPU asymmetry at 70/90/99 % utilization). *)

val table5_smoke : ?seed:string -> ?exec:Exec.t -> unit -> string
(** The CI gate's Table 5: identical structure with the farm sizes cut
    (2 pairs, 2 profiles, hundreds of connections) for wall clock. *)

val table6 : ?seed:string -> ?exec:Exec.t -> unit -> string
(** Beyond the paper, section 2.2 made measurable: steady-state
    per-handshake cost under {!Mix} workload mixes (50/90/99 %
    resumption, optionally with 0-RTT), per KA x SA pair. Resumed
    connections run the wire-accurate psk_dhe_ke flow — no
    Certificate/CertificateVerify — so the hash-based outlier's server
    bytes collapse toward the KA-only cost as the resumed fraction
    grows, while the full-handshake columns stay comparable to
    Table 2. *)

val table6_smoke : ?seed:string -> ?exec:Exec.t -> unit -> string
(** The CI gate's Table 6: 2 pairs x 3 mixes x 12 samples. *)

val table7 : ?seed:string -> ?exec:Exec.t -> unit -> string
(** The signature-placement study ({!Placement.table7}): per-chain-profile
    full-chain wire size, verification CPU, handshake medians and the
    flights-to-deliver column, plus a per-level breakdown. *)

val table7_smoke : ?seed:string -> ?exec:Exec.t -> unit -> string
(** The CI gate's Table 7: 2 pairs x 3 chain shapes x 10 samples. *)

val ablation_buffer : ?seed:string -> ?exec:Exec.t -> unit -> string
(** Extra (section 4 / 5.2 design lever): handshake latency as a
    function of the OpenSSL buffer limit, under both flight behaviours. *)

val ablation_cwnd : ?seed:string -> ?exec:Exec.t -> unit -> string
(** Extra (section 5.4's "tuning factor"): high-delay handshake latency
    as a function of the initial congestion window. *)

val ablation_hrr : ?seed:string -> ?exec:Exec.t -> unit -> string
(** Extra (section 2's "the 2-RTT fallback never occurred"): what that
    fallback would have cost — a wrong pre-computed key share forces a
    HelloRetryRequest round trip plus a second key generation. *)
