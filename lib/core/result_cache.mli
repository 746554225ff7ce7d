(** Disk memoization of completed cells, keyed by a SHA-256 of
    [(spec fingerprint, executable fingerprint)] — re-running a campaign
    with the same binary, seed and parameters reloads every cell from
    disk; changing any of them (including rebuilding the code) misses.

    Every {!Cell.kind} shares one directory. An entry's file extension
    and magic carry the kind's tag, so the Marshal payloads of two kinds
    are mutually unreadable: a lookup under one kind never returns
    another kind's entry.

    Entries are written atomically (temp file + rename), so one cache
    directory can safely be shared by parallel domains and by separate
    processes. Corrupt entries read as misses.

    Only completed outcomes are ever stored: {!Exec} stores exclusively
    on success, so a failed cell is re-executed — never replayed — on
    the next run. *)

type t

val create : dir:string -> t
(** Creates [dir] (and parents) if needed and fingerprints the running
    executable. *)

val kind_key : t -> ('spec, _) Cell.kind -> 'spec -> string
(** Hex cache key of a cell under this cache's code fingerprint. *)

val kind_find : t -> (_, 'outcome) Cell.kind -> string -> 'outcome option
(** Lookup by {!kind_key}; counts a hit or a miss. *)

val kind_store : t -> (_, 'outcome) Cell.kind -> string -> 'outcome -> unit

(** {1 Per-kind instances} *)

val key : t -> Experiment.spec -> string
val find : t -> string -> Experiment.outcome option
val store : t -> string -> Experiment.outcome -> unit
val farm_key : t -> Experiment.farm_spec -> string
val find_farm : t -> string -> Experiment.farm_outcome option
val store_farm : t -> string -> Experiment.farm_outcome -> unit

val hits : t -> int
(** Lookups served from disk since [create]. *)

val misses : t -> int
(** Lookups that had to execute since [create]. *)
