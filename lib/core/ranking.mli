(** Figure 4: algorithms ranked by a [0,10] log-scale of their median
    handshake latency (0 = fastest). *)

type entry = { name : string; latency_ms : float; rank : int }

val rank : (string * float) list -> entry list
(** [rank latencies] applies the paper's recipe: log, linear rescale to
    [0, 10], round; sorted fastest first. *)

val of_cells : (string * Metrics.cell_data) list -> entry list
(** {!rank} on each cell summary's median total handshake latency
    ([cd_total.d_p50]). *)
