(** Rule S2 — cross-domain mutation: writes to module-level mutable
    state from functions reachable from [Core.Pool] task sites must be
    wrapped in [Mutex.protect]. Complements S1, which flags the state's
    allocation; S2 follows the call graph to the stores. *)

val creators : string list
(** The stdlib calls that allocate unguarded mutable state ([ref],
    [Hashtbl.create], [Array.make], ...). *)

val rule : Rule.t
