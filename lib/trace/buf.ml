type open_frame = {
  f_cat : string;
  f_name : string;
  f_begin : float;
  f_args : Event.args;
}

type t = {
  label : string;
  mutable events : Event.t array;
  mutable len : int;
  (* per-track stacks of begin_span frames awaiting their end_span *)
  mutable open_spans : (string * open_frame list) list;
}

let create ?(label = "") () =
  { label; events = Array.make 64 (Event.Counter { Event.c_track = ""; c_name = ""; c_ts = 0.; c_value = 0. });
    len = 0; open_spans = [] }

let label t = t.label
let length t = t.len

let add t e =
  if t.len = Array.length t.events then begin
    let bigger = Array.make (2 * t.len) e in
    Array.blit t.events 0 bigger 0 t.len;
    t.events <- bigger
  end;
  t.events.(t.len) <- e;
  t.len <- t.len + 1

let span t ~track ~cat ~name ?(args = []) t0 t1 =
  add t
    (Event.Span
       { Event.s_track = track; s_cat = cat; s_name = name; s_begin = t0;
         s_end = t1; s_args = args })

let instant t ~track ~cat ~name ?(args = []) ts =
  add t
    (Event.Instant
       { Event.i_track = track; i_cat = cat; i_name = name; i_ts = ts;
         i_args = args })

let counter t ~track ~name ts value =
  add t
    (Event.Counter
       { Event.c_track = track; c_name = name; c_ts = ts; c_value = value })

let begin_span t ~track ~cat ~name ?(args = []) ts =
  let frame = { f_cat = cat; f_name = name; f_begin = ts; f_args = args } in
  let stack =
    Option.value ~default:[] (List.assoc_opt track t.open_spans)
  in
  t.open_spans <-
    (track, frame :: stack) :: List.remove_assoc track t.open_spans

let end_span t ~track ts =
  match List.assoc_opt track t.open_spans with
  | None | Some [] -> () (* unmatched end: ignore *)
  | Some (frame :: rest) ->
    t.open_spans <- (track, rest) :: List.remove_assoc track t.open_spans;
    span t ~track ~cat:frame.f_cat ~name:frame.f_name ~args:frame.f_args
      frame.f_begin ts

let events t = Array.to_list (Array.sub t.events 0 t.len)

let iter t f =
  for i = 0 to t.len - 1 do
    f t.events.(i)
  done
