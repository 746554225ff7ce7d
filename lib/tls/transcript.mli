(** Running transcript hash over handshake messages (RFC 8446 s. 4.4.1).

    The two endpoints of one connection hash the same messages. Created
    as a pair, they share a memo, so each message is hashed once per
    connection: the second endpoint to absorb a message takes the
    first's resulting state when its own state and the message bytes
    are equal, and hashes the bytes itself otherwise. Either way each
    side's hash covers exactly the bytes that side absorbed. *)

type t

val create : unit -> t
(** A transcript with no peer: it hashes every message itself. *)

val create_pair : unit -> t * t
(** The two endpoints' transcripts of one connection, sharing a memo.
    The memo lives as long as the two transcripts. *)

val add : t -> string -> unit
(** Absorb a full handshake message (including its 4-byte header). *)

val reset : t -> unit
(** Back to the empty transcript, keeping the memo: the restart after a
    HelloRetryRequest. *)

val current : t -> string
(** Hash of everything absorbed so far; the transcript keeps going. *)
