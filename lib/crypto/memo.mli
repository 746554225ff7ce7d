(** A take-once memo of derived byte strings, shared by the two
    endpoints of one simulated connection.

    Each entry is a derivation's [tag], its input [parts] and its
    output. Whichever endpoint derives a value first puts it; the other,
    presenting the same tag, output length and inputs, takes it instead
    of deriving it again. A taken entry is removed, so a memo holds only
    values one side derived and the other has not yet needed, and it
    lives as long as its connection. Parts are compared with
    {!Bytesx.equal_ct}; nothing is hashed. A memo is not shared across
    domains. *)

type t

val create : unit -> t
(** An empty memo. A caller outside any connection passes a fresh one,
    which never hits. *)

val length : t -> int
(** Entries put and not yet taken. *)

val put : t -> tag:string -> string list -> string -> unit
(** [put t ~tag parts out] records that the derivation [tag] of [parts]
    gave [out]. *)

val take : t -> tag:string -> string list -> int -> string option
(** [take t ~tag parts len] removes and returns the output of the
    first entry with tag [tag], an output of [len] bytes and parts all
    equal to [parts]; [None] leaves the memo as it was. *)

val once : t -> tag:string -> string list -> int -> (unit -> string) -> string
(** [once t ~tag parts len derive] takes the entry [take] would find,
    or else runs [derive], which must return [len] bytes, and puts its
    output. *)
