(** D1 — wall-clock quarantine. Campaign artifacts must be functions of
    the virtual clock and the seed only; real-time reads are banned
    everywhere, and the few legitimate health/progress sites carry
    [[@lint.allow]] annotations. *)

val rule : Rule.t
