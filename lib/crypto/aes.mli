(** AES-128/192/256 block cipher (FIPS 197) plus CTR keystream.

    Only the forward cipher is provided: every mode used in this project
    (CTR, GCM, and the ML-KEM/ML-DSA "90s"/AES sampling variants) needs
    encryption only. *)

type key

val expand_key : string -> key
(** [expand_key k] accepts 16-, 24- or 32-byte keys.
    @raise Invalid_argument otherwise. *)

val encrypt_block : key -> string -> string
(** [encrypt_block key block] for a 16-byte [block]. *)

type ctr
(** A CTR keystream with a running counter. *)

val ctr_stream : key -> nonce:string -> ctr
(** [ctr_stream key ~nonce] starts a keystream at counter 0. [nonce] is
    up to 16 bytes; it occupies the high-order bytes of the counter
    block and the remaining low-order bytes count up from 0
    (big-endian), matching both NIST CTR-with-96-bit-IV and the AES-CTR
    XOF construction used by Kyber-90s and Dilithium-AES.
    @raise Invalid_argument if [nonce] is longer than 16 bytes. *)

val ctr_squeeze : ctr -> int -> string
(** [ctr_squeeze t n] produces the next [n] bytes of the keystream.
    @raise Invalid_argument if that needs more blocks than the counter
    bytes can number, rather than wrapping (a 16-byte nonce leaves no
    counter bytes and allows one block). *)

val ctr_keystream : key -> nonce:string -> int -> string
(** [ctr_keystream key ~nonce n] is the first [n] bytes of a fresh
    [ctr_stream key ~nonce]. *)

val ctr_encrypt : key -> nonce:string -> string -> string
(** XOR of the input with [ctr_keystream]. *)
