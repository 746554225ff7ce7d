(* The single D1 quarantine site: the raw wall-clock primitive appears
   exactly once in the tree, here, annotated. Everything else reads host
   time through this module, and the linter keeps the simulation layers
   from calling even that (see rule_wallclock.ml). *)

let now_s () =
  (Unix.gettimeofday () [@lint.allow "D1" "the one quarantined wall-clock \
                                           read; volatile telemetry and \
                                           profiling only, never part of \
                                           a deterministic artifact"])

let elapsed_s t0 = now_s () -. t0
