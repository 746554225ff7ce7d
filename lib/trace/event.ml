(* The event model: everything is stamped in virtual seconds. A [track]
   is one horizontal lane of the timeline (host name, "net", ...); spans
   on a track either nest or are disjoint, which is what lets the
   exporters render proper flame stacks. *)

type args = (string * string) list

type span = {
  s_track : string;
  s_cat : string; (* "handshake" | "phase" | "message" | "cpu" | "net" *)
  s_name : string;
  s_begin : float; (* virtual seconds *)
  s_end : float;
  s_args : args;
}

type instant = {
  i_track : string;
  i_cat : string;
  i_name : string;
  i_ts : float;
  i_args : args;
}

type counter = {
  c_track : string;
  c_name : string;
  c_ts : float;
  c_value : float;
}

type t = Span of span | Instant of instant | Counter of counter

let time = function
  | Span s -> s.s_begin
  | Instant i -> i.i_ts
  | Counter c -> c.c_ts
