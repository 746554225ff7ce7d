type cancel = { mutable cancelled : bool }

type event = { time : float; seq : int; thunk : unit -> unit; handle : cancel }

(* binary min-heap ordered by (time, seq) *)
type t = {
  mutable heap : event array;
  mutable size : int;
  mutable clock : float;
  mutable next_seq : int;
}

let dummy =
  { time = 0.; seq = 0; thunk = (fun () -> ()); handle = { cancelled = false } }

let create () = { heap = Array.make 256 dummy; size = 0; clock = 0.; next_seq = 0 }
let now t = t.clock

let before a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let push t ev =
  if t.size = Array.length t.heap then begin
    let bigger = Array.make (2 * t.size) dummy in
    Array.blit t.heap 0 bigger 0 t.size;
    t.heap <- bigger
  end;
  t.heap.(t.size) <- ev;
  t.size <- t.size + 1;
  (* sift up *)
  let i = ref (t.size - 1) in
  while
    !i > 0
    &&
    let parent = (!i - 1) / 2 in
    before t.heap.(!i) t.heap.(parent)
  do
    let parent = (!i - 1) / 2 in
    let tmp = t.heap.(parent) in
    t.heap.(parent) <- t.heap.(!i);
    t.heap.(!i) <- tmp;
    i := parent
  done

let pop t =
  assert (t.size > 0);
  let top = t.heap.(0) in
  t.size <- t.size - 1;
  t.heap.(0) <- t.heap.(t.size);
  t.heap.(t.size) <- dummy;
  (* sift down *)
  let i = ref 0 in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
    let smallest = ref !i in
    if l < t.size && before t.heap.(l) t.heap.(!smallest) then smallest := l;
    if r < t.size && before t.heap.(r) t.heap.(!smallest) then smallest := r;
    if !smallest = !i then continue := false
    else begin
      let tmp = t.heap.(!smallest) in
      t.heap.(!smallest) <- t.heap.(!i);
      t.heap.(!i) <- tmp;
      i := !smallest
    end
  done;
  top

let schedule_cancellable t ~delay thunk =
  let delay = if delay < 0. then 0. else delay in
  let handle = { cancelled = false } in
  push t { time = t.clock +. delay; seq = t.next_seq; thunk; handle };
  t.next_seq <- t.next_seq + 1;
  handle

let schedule t ~delay thunk = ignore (schedule_cancellable t ~delay thunk)

let schedule_at t ~time thunk = schedule t ~delay:(time -. t.clock) thunk

let run ?until t =
  let stop = match until with None -> infinity | Some u -> u in
  let continue = ref true in
  while !continue && t.size > 0 do
    let ev = pop t in
    if ev.time > stop then begin
      (* push back and stop: the caller may resume later *)
      push t ev;
      continue := false
    end
    else begin
      t.clock <- ev.time;
      if not ev.handle.cancelled then ev.thunk ()
    end
  done;
  if t.size = 0 && stop < infinity && t.clock < stop then t.clock <- stop

(* Cancelled handles stay in the heap until popped (cancellation only
   flips the flag), so the raw size overcounts. Callers use [pending] to
   ask "is there live work left?" — count only events that would still
   fire. *)
let pending t =
  let live = ref 0 in
  for i = 0 to t.size - 1 do
    if not t.heap.(i).handle.cancelled then incr live
  done;
  !live
[@@lint.allow "M2" "test: netsim engine cancel/until and engine pending \
                    excludes cancelled: cancelled events are not live work"]
