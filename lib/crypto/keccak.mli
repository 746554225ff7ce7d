(** Keccak sponge (FIPS 202): SHA3-256/512 and the SHAKE128/256 XOFs.

    SHAKE is exposed both as one-shot ([shake128], [shake256]) and as an
    incremental XOF ([Xof]) so callers (ML-KEM / ML-DSA samplers) can
    squeeze an unbounded stream. *)

val sha3_256 : string -> string
val sha3_512 : string -> string

val shake128 : string -> int -> string
(** [shake128 msg n] squeezes [n] bytes. *)

val shake256 : string -> int -> string

val shake256_parts : string list -> int -> string
(** [shake256_parts parts n] is [shake256 (String.concat "" parts) n],
    absorbing each part in place instead of building the concatenation. *)

val shake256_parts_into : string list -> Bytes.t -> int -> int -> unit
(** [shake256_parts_into parts buf off len] writes [shake256_parts parts
    len] to [buf] at [off], squeezing straight into it; the bytes
    outside [off, off + len) are untouched.
    @raise Invalid_argument if the range is not within [buf]. *)

val shake256_parts_equal : string list -> string -> int -> int -> bool
(** [shake256_parts_equal parts s off len] is [shake256_parts parts len
    = String.sub s off len], compared block by block as the output is
    squeezed, so no output is built. Its time depends on [len] only. An
    [off] or [len] outside [s] gives [false]. *)

module Xof : sig
  type t

  val shake128 : string -> t
  (** Absorb [msg] and switch to the squeeze phase. *)

  val shake256 : string -> t

  val squeeze : t -> int -> string
  (** [squeeze t n] produces the next [n] bytes of the output stream. *)

  val squeeze_uint : t -> int -> int
  (** [squeeze_uint t k], for [1 <= k <= 7], is the next [k] bytes of
      the output stream read as a big-endian unsigned integer: the same
      bytes [squeeze t k] would return, read in place, so it allocates
      nothing. {!Drbg.uniform} and {!Drbg.float} draw through it.
      @raise Invalid_argument for [k] outside [1, 7]. *)
end

val bench_permutation : unit -> unit -> unit
(** [bench_permutation ()] builds a deterministically-filled sponge
    state and returns a thunk applying one Keccak-f[1600] permutation to
    it in place — the substrate-kernel hook behind [Core.Profile], not
    part of the hashing API. *)
