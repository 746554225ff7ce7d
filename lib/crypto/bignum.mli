(** Arbitrary-precision natural numbers, from scratch.

    Numbers are non-negative; base-2^26 limbs in native [int]s so that all
    intermediate products in multiplication and Knuth division fit 63-bit
    arithmetic. This module backs the RSA, NIST-curve ECDH/ECDSA and
    X25519 implementations. *)

type t

val zero : t
val one : t
val two : t

val of_int : int -> t
(** @raise Invalid_argument on negative input. *)

val to_int : t -> int
(** @raise Failure if the value does not fit in a native int. *)

val of_hex : string -> t

val of_bytes_be : string -> t
val to_bytes_be : ?len:int -> t -> string
(** Big-endian encoding; [len] left-pads with zeros.
    @raise Invalid_argument if the value needs more than [len] bytes. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val is_zero : t -> bool
val is_even : t -> bool
val bit_length : t -> int
val testbit : t -> int -> bool

val add : t -> t -> t
val sub : t -> t -> t
(** @raise Invalid_argument if the result would be negative. *)

val mul : t -> t -> t
val shift_left : t -> int -> t
val shift_right : t -> int -> t

val divmod : t -> t -> t * t
(** [divmod a b] is [(a / b, a mod b)]. @raise Division_by_zero. *)

val rem : t -> t -> t

val mod_add : t -> t -> m:t -> t
val mod_sub : t -> t -> m:t -> t
val mod_mul : t -> t -> m:t -> t
(** Modular helpers; inputs must already be reduced for [mod_add]/
    [mod_sub]. *)

val mod_pow : t -> t -> m:t -> t
(** [mod_pow b e ~m] is [b^e mod m] by square-and-multiply. *)

val mod_inv : t -> m:t -> t
(** Modular inverse by extended Euclid.
    @raise Not_found if not invertible. *)

val gcd : t -> t -> t

val random : Drbg.t -> bits:int -> t
(** Uniform in [0, 2^bits). *)

val random_below : Drbg.t -> t -> t
(** Uniform in [0, n) by rejection. *)

val is_probable_prime : Drbg.t -> t -> bool
(** Trial division by small primes, then 20 Miller-Rabin rounds. *)

val gen_prime : Drbg.t -> bits:int -> t
(** A random probable prime with the top two bits set (so products of two
    such primes have exactly [2*bits] bits, as RSA needs). *)
