(** M2 — every [lib/] definition is reachable from the shipped
    executables ([bin/], [bench/], [examples/]) or kept for a test under
    [[@@lint.allow "M2" "reason"]]. *)

val rule : Rule.t
