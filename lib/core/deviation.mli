(** The KA/SA-independence analysis of section 5.2 / Figure 3.

    If KA and SA contributed latency independently, the handshake latency
    of any pair would be predicted by
    [E(k,s) = M(k, rsa2048) + M(x25519, s) - M(x25519, rsa2048)].
    This module measures every same-level (non-hybrid) combination and
    reports the deviation [E - M]: positive means faster than predicted. *)

type cell = {
  kem : string;
  sa : string;
  measured_ms : float;  (** median full-handshake latency *)
  expected_ms : float;
  deviation_ms : float;  (** expected - measured *)
}

type grid = {
  level : int;
  buffering : Tls.Config.buffering;
  cells : cell list;
  failed : (string * string) list;
      (** KA x SA combinations with no deviation value because the
          pair's own cell, one of its marginals, or the baseline failed;
          renderers mark these instead of aborting. *)
}

val analyze :
  ?buffering:Tls.Config.buffering -> seed:string -> exec:Exec.t -> int -> grid
(** [analyze ~seed ~exec level] runs the full level-group campaign (the
    paper's [level1]/[level3]/[level5] experiments; [level1-nopush] etc.
    with [~buffering:Default_buffered]). Each distinct KA x SA pair is
    measured exactly once, through [exec]. *)

val improvement : optimized:grid -> default:grid -> (string * string * float) list
(** Figure 3c: per-combination latency gain of the optimized push,
    [default_measured - optimized_measured] in ms. *)
