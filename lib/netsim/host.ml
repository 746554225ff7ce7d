type t = {
  engine : Engine.t;
  name : string;
  mutable cpu_free : float; (* the core is busy until this time *)
  mutable charges : int; (* CPU charge events, sync and async *)
  ledger : (string, float) Hashtbl.t;
}

let create engine ~name =
  { engine; name; cpu_free = 0.; charges = 0; ledger = Hashtbl.create 8 }
let name t = t.name
let now t = Engine.now t.engine

let account t lib ms =
  let prev = Option.value ~default:0. (Hashtbl.find_opt t.ledger lib) in
  Hashtbl.replace t.ledger lib (prev +. ms);
  t.charges <- t.charges + 1

(* Every CPU charge emits one "cpu" span over exactly the interval the
   core is occupied. The single-core model serializes charges through
   [cpu_free], so cpu spans on one host track never overlap — the
   exporters rely on this to build proper flame stacks — and summing
   them per library reproduces the ledger to float rounding. *)
let cpu_span t ~op ~lib start finish =
  if Trace.Sink.enabled () then
    Trace.Sink.span ~track:t.name ~cat:"cpu"
      ~name:(if op = "" then lib else op)
      ~args:[ ("lib", lib) ] start finish

let charge ?(op = "") t ~ms ~lib ~k =
  let now = Engine.now t.engine in
  let start = Float.max now t.cpu_free in
  let finish = start +. (ms /. 1000.) in
  t.cpu_free <- finish;
  account t lib ms;
  cpu_span t ~op ~lib start finish;
  Engine.schedule_at t.engine ~time:finish k

let charge_async ?(op = "") t ~ms ~lib =
  (* models interrupt-context work: accounted, and it delays the core *)
  let now = Engine.now t.engine in
  let start = Float.max now t.cpu_free in
  let finish = start +. (ms /. 1000.) in
  t.cpu_free <- finish;
  account t lib ms;
  cpu_span t ~op ~lib start finish

(* Sorted at the producer, so neither the rendering nor the float sum
   below can see hash-bucket order (float addition is not
   associative). *)
let ledger t = Trace.Summary.per_lib t.ledger

let total_cpu_ms t =
  List.fold_left (fun acc (_, ms) -> acc +. ms) 0. (ledger t)
let charge_count t = t.charges
