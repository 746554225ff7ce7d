(** The experiment naming schema of Appendix B.6: each name maps to the
    campaign that the paper's `experiment.py` would run, rendered as a
    report string. *)

val names : string list
(** [all-kem], [all-sig], [figure3], [table3], [figure4],
    [level1|3|5], [level1|3|5-nopush], [level1|3|5-perf],
    [all-kem-scenarios], [all-sig-scenarios], [all-sphincs], [attack],
    [farm], [mixes], [chains] (each also at [-smoke] size) and the
    [ablation-*] sweeps; see [pqtls-bench list]. *)

val aliases : (string * string) list
(** Paper-table spellings accepted everywhere a name is:
    [table2a] = [all-kem], [table2b] = [all-sig],
    [table4a] = [all-kem-scenarios], [table4b] = [all-sig-scenarios]. *)

val resolve : string -> string
(** Canonical name of an alias; identity for everything else. *)

val run : ?seed:string -> ?exec:Exec.t -> string -> string
(** Run a campaign through [exec] (default a fresh {!Exec.sequential}); the
    report is bit-identical for any [exec.jobs].
    @raise Invalid_argument for unknown names. *)

val describe : string -> string
