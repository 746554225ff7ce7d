(** The wall-clock quarantine (lint rule D1): every real-time read in
    the tree flows through this one module, so the determinism linter
    can prove at a glance that nothing outside it can observe host time.

    Readings are *volatile*: they depend on the machine, the scheduler
    and the moment — they may feed operator telemetry (progress lines,
    {!Exec.health_summary}) and the real-time profiling artifact
    ({!Profile}), whose values are explicitly machine-dependent, but
    they must never influence a campaign outcome or a deterministic
    artifact. Rule D1 enforces the complement: the raw primitives
    ([Unix.gettimeofday] and friends) are banned everywhere but here,
    and {!now_s}/{!elapsed_s} themselves are banned inside the
    simulation layers (lib/crypto, lib/pqc, lib/tls, lib/netsim,
    lib/trace, lib/lint), which must stay pure functions of spec and
    seed. *)

val now_s : unit -> float
(** Seconds since the Unix epoch, from the host's best-effort monotonic
    source. Only meaningful as a difference between two reads. *)

val elapsed_s : float -> float
(** [elapsed_s t0] is [now_s () -. t0] — host seconds since [t0]. *)
