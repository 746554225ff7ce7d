(** Domain pool for campaign grids.

    Tasks are coarse (one task = one experiment cell), so the pool
    favours simplicity: workers claim task indices from one shared
    atomic cursor until it passes the end. Results come back in input
    order, so a parallel map is a drop-in replacement for [List.map]
    whenever [f] is pure — which experiment cells are (each builds its
    own engine, RNG and hosts from a derived seed). *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()], at least 1. *)

val map :
  jobs:int ->
  ?on_done:(completed:int -> total:int -> 'a -> 'b -> unit) ->
  ('a -> 'b) ->
  'a list ->
  'b list
(** [map ~jobs f xs] is [List.map f xs] evaluated on [min jobs n]
    domains (including the calling one); with [jobs <= 1] the caller
    runs every task and no domain is spawned.

    [on_done] fires after each task under an internal lock (safe to
    print from): completion count, total, the input and the result.

    If a task raises, no further task is claimed, in-flight ones drain,
    and the first exception is re-raised in the caller with its
    backtrace. This is a backstop for genuine bugs: the campaign layer
    ({!Exec}) catches per-cell failures into [(_, _) result] values
    before they reach the pool, so one failing experiment cell cannot
    abandon the rest of a grid. *)
