(** SHA-256 and SHA-224 (FIPS 180-4).

    A streaming context plus one-shot helpers. The implementation uses
    OCaml's native [int] with 32-bit masking, which is safe on 64-bit
    platforms (the only ones this project targets). *)

type ctx
(** Mutable hashing context. *)

val init : unit -> ctx
val init_224 : unit -> ctx
val feed : ctx -> string -> unit
val feed_sub : ctx -> string -> int -> int -> unit
val get : ctx -> string
(** [get ctx] is the digest of everything fed so far. It leaves [ctx]'s
    state unchanged, so [ctx] can keep absorbing. *)

type state
(** What a context has absorbed (chaining value, pending partial block
    and byte count), without its working buffers. *)

val save : ctx -> state

val restore : ctx -> state -> unit
(** [restore ctx s] puts [ctx] in the state [s] was saved from, as if it
    had absorbed the same bytes.
    @raise Invalid_argument if [s] comes from the other variant
    (SHA-224 versus SHA-256). *)

val digest : string -> string
(** One-shot SHA-256; 32-byte output. *)

val digest_224 : string -> string
(** One-shot SHA-224; 28-byte output. *)
