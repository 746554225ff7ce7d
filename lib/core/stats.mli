(** Small numeric helpers used by every evaluation. *)

val median : float list -> float
(** @raise Invalid_argument on the empty list. *)

val mean : float list -> float
val percentile : float -> float list -> float
(** [percentile p xs] with [p] in [0,1], linear interpolation. *)

val min_max : float list -> float * float

val stddev : float list -> float
(** Sample standard deviation (n-1 denominator); [0.] for a singleton.
    @raise Invalid_argument on the empty list. *)

val percentiles : float list -> float list -> float list
(** [percentiles ps xs] evaluates every [p] in [ps] against one shared
    sort of [xs] — the same linear interpolation as {!percentile}, for
    the full p5..p99 ladder of a metrics distribution. *)

val bootstrap_ci : seed:string -> float -> float list -> float * float
(** [bootstrap_ci ~seed p xs] is a deterministic percentile-bootstrap
    confidence interval for the [p]-th percentile of [xs] (as
    {!percentile}; [0.5] is the median): resampling indices come from a
    {!Crypto.Drbg} seeded with [seed], so the same inputs give the same
    interval on every machine and domain: 200 resamples, 95 %
    confidence. A singleton collapses to [(v, v)]. *)
