(** One cell's event buffer: append-only, owned by exactly one domain at
    a time (each campaign cell runs wholly on one domain), so the hot
    path needs no locks. Merging buffers in spec order at campaign end
    keeps exporter output bit-identical across [--jobs]. *)

type t

val create : ?label:string -> unit -> t
(** [label] names the cell (e.g. the {!Core.Experiment.spec_label}); the
    Chrome exporter shows it as the process name. *)

val label : t -> string
val length : t -> int

val span :
  t -> track:string -> cat:string -> name:string -> ?args:Event.args ->
  float -> float -> unit
(** [span t ~track ~cat ~name t0 t1] records a complete interval. *)

val begin_span :
  t -> track:string -> cat:string -> name:string -> ?args:Event.args ->
  float -> unit
(** Open a span on [track]'s stack; closed by the next {!end_span}. *)

val end_span : t -> track:string -> float -> unit
(** Close the innermost open span on [track] (no-op when none is open). *)

val instant : t -> track:string -> cat:string -> name:string ->
  ?args:Event.args -> float -> unit

val counter : t -> track:string -> name:string -> float -> float -> unit
(** [counter t ~track ~name ts v] records a counter sample. *)

val events : t -> Event.t list
(** In emission order. *)

val iter : t -> (Event.t -> unit) -> unit
