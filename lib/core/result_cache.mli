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
    processes. An entry proves its bytes: it holds the MD5 of its
    marshalled payload, checked before unmarshalling, so a damaged
    entry is a miss, never another outcome.

    Only completed outcomes are ever stored: {!Exec} stores exclusively
    on success, so a failed cell is re-executed — never replayed — on
    the next run. *)

type t

val create : dir:string -> t
(** Creates [dir] (and parents) if needed and fingerprints the running
    executable. *)

val kind_key : t -> ('spec, _) Cell.kind -> 'spec -> string
(** Hex cache key of a cell under this cache's code fingerprint. *)

type miss =
  | Absent  (** no entry under this key *)
  | Damaged
      (** an entry whose magic, digest or payload does not check: a
          damaged file, or one another kind or cache version wrote *)

val kind_find :
  t -> (_, 'outcome) Cell.kind -> string -> ('outcome, miss) result
(** Lookup by {!kind_key}. Storing under the same key overwrites a
    damaged entry. *)

val kind_store : t -> (_, 'outcome) Cell.kind -> string -> 'outcome -> unit

(** {1 Per-kind instances} *)

val key : t -> Experiment.spec -> string

val find : t -> string -> Experiment.outcome option
(** {!kind_find} with either miss as [None]. *)

val store : t -> string -> Experiment.outcome -> unit
val farm_key : t -> Experiment.farm_spec -> string
val find_farm : t -> string -> Experiment.farm_outcome option
val store_farm : t -> string -> Experiment.farm_outcome -> unit
