(** A simulated host: one dedicated CPU core (the paper pins client and
    server to cores) plus a per-shared-library CPU ledger that feeds the
    white-box analysis (Table 3). *)

type t

val create : Engine.t -> name:string -> t
val name : t -> string

val now : t -> float
(** The host's virtual clock (its engine's current time). *)

val charge : ?op:string -> t -> ms:float -> lib:string -> k:(unit -> unit) -> unit
(** [charge host ~ms ~lib ~k] occupies the CPU for [ms] virtual
    milliseconds (queueing behind any in-flight work) and then runs [k].
    The time is attributed to [lib] in the ledger. When tracing is
    enabled the occupied interval is emitted as a "cpu" span named [op]
    (defaulting to the library name). *)

val charge_async : ?op:string -> t -> ms:float -> lib:string -> unit
(** Account CPU time with no continuation (per-packet kernel work). *)

val ledger : t -> (string * float) list
(** Accumulated CPU milliseconds per library, descending. *)

val total_cpu_ms : t -> float

val charge_count : t -> int
(** Number of CPU charge events ({!charge} plus {!charge_async}) since
    creation — a cheap proxy for scheduler pressure in the metrics
    artifact. *)
