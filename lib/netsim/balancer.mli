(** Deterministic load-balancer model for the server farm. *)

type policy = Round_robin | Least_connections

val policy_of_name : string -> policy
(** ["round-robin"] / ["least-connections"] — the spelling used in farm
    spec fingerprints and the CLI.
    @raise Invalid_argument for unknown policy names. *)

type t

val create : policy -> servers:int -> t
(** @raise Invalid_argument when [servers <= 0]. *)

val pick : t -> load:(int -> int) -> int
(** Assign the next connection: round-robin cycles the cursor;
    least-connections takes the server minimizing [load] (in-flight plus
    queued connections, supplied by the farm), ties toward the lowest
    index. *)
