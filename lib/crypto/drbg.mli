(** Deterministic random byte generator backed by SHAKE256.

    Every source of randomness in the project flows through a [Drbg.t] so
    that experiments are exactly reproducible from a seed, mirroring the
    paper's emphasis on repeatable measurement campaigns. *)

type t

val create : seed:string -> t
(** Domain-separated generator; distinct seeds give independent streams. *)

val generate : t -> int -> string
(** [generate t n] produces the next [n] bytes. *)

val uniform : t -> int -> int
(** [uniform t n] is a uniform integer in [0, n), rejection sampled
    from the stream [generate] reads: each try takes the next 4 bytes,
    keeps the top 30 bits of their big-endian value and rejects at or
    above the largest multiple of [n] below 2^30. The bytes are read
    where the sponge holds them ({!Keccak.Xof.squeeze_uint}), so a
    draw allocates nothing; [uniform t 1] consumes nothing.
    @raise Invalid_argument if [n <= 0]. *)

val float : t -> float
(** Uniform float in [0, 1): the top 53 bits of the next 7 bytes of
    the stream, read big-endian in place, over 2^53. *)

val fork : t -> string -> t
(** [fork t label] derives an independent child generator; the parent
    stream is not consumed. *)
