(* The N-client x M-server farm: open-loop arrivals go to the
   least-loaded server (fewest in-flight plus queued connections, ties
   to the lowest index), subject to a per-server concurrency limit and a
   bounded accept queue. The farm itself never touches TLS — the
   caller supplies [launch], which runs one handshake against the chosen
   server and signals completion — so the module stays protocol-agnostic
   and free of dependency cycles.

   Per-server CPU queueing is *not* modeled here: it emerges from the
   existing [Host.charge] ledger, which serializes every handshake's
   crypto through the server core's [cpu_free] horizon. What the farm
   adds is admission control in front of that core: connections beyond
   [max_concurrent] wait in the accept queue, and arrivals that find the
   queue full are dropped — the overload phenomena of Table 5. *)

type config = { servers : int; max_concurrent : int; accept_queue : int }

type conn = {
  id : int;
  arrived : float;
  mutable admitted : float; (* nan until admitted *)
  mutable finished : float; (* nan until completed *)
}

type t = {
  engine : Engine.t;
  config : config;
  launch : server:int -> conn:int -> finished:(unit -> unit) -> unit;
  conns : conn array; (* indexed by connection id = arrival order *)
  in_flight : int array;
  queues : conn Queue.t array;
  per_server_completed : int array;
  mutable completed : int;
  mutable dropped : int;
}

let rec admit t (c : conn) server =
  t.in_flight.(server) <- t.in_flight.(server) + 1;
  c.admitted <- Engine.now t.engine;
  t.launch ~server ~conn:c.id ~finished:(fun () ->
      c.finished <- Engine.now t.engine;
      t.completed <- t.completed + 1;
      t.per_server_completed.(server) <- t.per_server_completed.(server) + 1;
      t.in_flight.(server) <- t.in_flight.(server) - 1;
      if not (Queue.is_empty t.queues.(server)) then
        admit t (Queue.pop t.queues.(server)) server)

let least_loaded t =
  let load s = t.in_flight.(s) + Queue.length t.queues.(s) in
  let best = ref 0 in
  for s = 1 to t.config.servers - 1 do
    if load s < load !best then best := s
  done;
  !best

let arrive t c =
  let server = least_loaded t in
  if t.in_flight.(server) < t.config.max_concurrent then admit t c server
  else if Queue.length t.queues.(server) < t.config.accept_queue then
    Queue.push c t.queues.(server)
  else t.dropped <- t.dropped + 1

let create ~engine ~config ~arrivals ~launch =
  if config.servers <= 0 then invalid_arg "Farm.create: servers must be > 0";
  if config.max_concurrent <= 0 then
    invalid_arg "Farm.create: max_concurrent must be > 0";
  let conns =
    Array.of_list
      (List.mapi
         (fun id at ->
           { id; arrived = at; admitted = nan; finished = nan })
         arrivals)
  in
  let t =
    { engine;
      config;
      launch;
      conns;
      in_flight = Array.make config.servers 0;
      queues = Array.init config.servers (fun _ -> Queue.create ());
      per_server_completed = Array.make config.servers 0;
      completed = 0;
      dropped = 0 }
  in
  Array.iter
    (fun c -> Engine.schedule_at engine ~time:c.arrived (fun () -> arrive t c))
    conns;
  t

let offered t = Array.length t.conns
let completed t = t.completed
let dropped t = t.dropped
let unfinished t = offered t - t.completed - t.dropped
let per_server_completed t = Array.copy t.per_server_completed

let completed_conns t =
  Array.to_list t.conns
  |> List.filter (fun c -> not (Float.is_nan c.finished))

let latencies_ms t =
  List.map (fun c -> (c.finished -. c.arrived) *. 1000.) (completed_conns t)

let wait_ms t =
  List.map (fun c -> (c.admitted -. c.arrived) *. 1000.) (completed_conns t)
