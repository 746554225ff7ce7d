type netem = {
  loss : float;
  loss_towards : string option;
  delay_s : float;
  jitter_s : float;
  rate_bps : float;
}

let ideal = { loss = 0.; loss_towards = None; delay_s = 1e-6; jitter_s = 0.; rate_bps = 10e9 }

(* one direction of the duplex link *)
type path = { mutable busy_until : float }

type t = {
  engine : Engine.t;
  rng : Crypto.Drbg.t;
  netem : netem;
  tap : float -> Packet.t -> unit;
  paths : (string, path) Hashtbl.t; (* keyed by src host *)
  mutable lost : int;
}

let create engine rng netem ~tap =
  { engine; rng; netem; tap; paths = Hashtbl.create 4; lost = 0 }

let path_for t src =
  match Hashtbl.find_opt t.paths src with
  | Some p -> p
  | None ->
    let p = { busy_until = 0. } in
    Hashtbl.add t.paths src p;
    p

let send t packet ~deliver =
  let path = path_for t packet.Packet.src in
  let now = Engine.now t.engine in
  (* netem drops before the wire in our model; a dropped packet never
     reaches the interface queue, so it must not consume serialization
     time or delay the packets behind it. The tap (optical splitter)
     sits after the emulation, so lost packets are never timestamped
     either. *)
  let loss_applies =
    match t.netem.loss_towards with
    | None -> true
    | Some host -> packet.Packet.dst = host
  in
  if loss_applies && Crypto.Drbg.float t.rng < t.netem.loss then begin
    t.lost <- t.lost + 1;
    if Trace.Sink.enabled () then
      Trace.Sink.instant ~track:"net" ~cat:"net" ~name:"drop"
        ~args:[ ("packet", Packet.describe packet) ]
        now
  end
  else begin
    let serialization =
      float_of_int (8 * Packet.wire_bytes packet) /. t.netem.rate_bps
    in
    (* FIFO queue: transmission starts when the path frees up *)
    let start = Float.max now path.busy_until in
    let tx_done = start +. serialization in
    path.busy_until <- tx_done;
    (* tc-netem jitter: uniform around the configured delay; crossing
       delays reorder packets, exactly as netem does without its
       reorder-correction option *)
    let jitter =
      if t.netem.jitter_s = 0. then 0.
      else t.netem.jitter_s *. ((2. *. Crypto.Drbg.float t.rng) -. 1.)
    in
    let arrival = tx_done +. Float.max 0. (t.netem.delay_s +. jitter) in
    (* one wire-occupancy span per direction; the per-src FIFO means
       these never overlap within a track *)
    if Trace.Sink.enabled () then
      Trace.Sink.span
        ~track:("wire:" ^ packet.Packet.src)
        ~cat:"net" ~name:(Packet.describe packet) start tx_done;
    Engine.schedule_at t.engine ~time:tx_done (fun () ->
        t.tap tx_done packet);
    Engine.schedule_at t.engine ~time:arrival (fun () -> deliver packet)
  end

let stats_lost t = t.lost
[@@lint.allow "M2" "test: netsim link loss: the drop count equals the \
                    packets never delivered"]
