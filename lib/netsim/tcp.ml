type config = { init_cwnd_segments : int }

let default_config = { init_cwnd_segments = 10 }
let mss = 1448
let kernel_cost_ms_per_packet = 0.009

let initial_rto = 1.0
let min_rto = 0.2
let max_rto = 60.0

type state = Closed | Syn_sent | Syn_received | Established | Fin_sent

type t = {
  engine : Engine.t;
  link : Link.t;
  config : config;
  host : Host.t;
  mutable peer : t option;
  mutable state : state;
  mutable on_established : unit -> unit;
  mutable on_data : string -> unit;
  (* sender side *)
  chunks : (int * string) Queue.t;
      (* the strings written and not yet acknowledged, oldest first,
         each with the stream offset it starts at *)
  mutable write_end : int; (* stream offset after the last byte written *)
  mutable out_marks : (int * string) list; (* absolute offset, label *)
  mutable snd_una : int;
  mutable snd_nxt : int;
  (* Linux counts the congestion window in segments, which is exactly why
     flights of many partially-filled segments overflow the initial
     window in the paper's section 5.4 *)
  mutable cwnd : float; (* segments *)
  mutable ssthresh : float; (* segments *)
  mutable seg_ends : int list; (* end seq of each in-flight segment, any order *)
  mutable dupacks : int;
  mutable recover : int; (* NewReno-style recovery point *)
  mutable rto : float;
  mutable srtt : float option;
  mutable rttvar : float;
  mutable rto_timer : Engine.cancel option;
  mutable sample : (int * float) option; (* (end seq, tx time) for RTT *)
  mutable high_water : int; (* highest seq ever sent; Karn guard *)
  mutable syn_sent_at : float;
  mutable in_recovery : bool;
  mutable fin_pending : bool;
  (* receiver side *)
  mutable rcv_nxt : int;
  mutable ooo : (int * string) list; (* out of order (seq, payload) *)
  mutable unacked_segs : int; (* segments in the open aggregation window *)
  mutable pending_deliveries : int; (* closed aggregates not yet ACKed *)
  mutable agg_timer : Engine.cancel option;
  mutable delack_timer : Engine.cancel option;
  (* counters *)
  mutable wire_bytes : int;
  mutable pkts : int;
  mutable rtx_fast : int; (* dup-ACK-triggered (incl. NewReno partial) *)
  mutable rtx_timeout : int; (* timer-driven: RTO, SYN, SYN-ACK *)
  mutable rtt_meas : int; (* completed round-trip measurements *)
  mutable next_pkt_id : int;
}

let make engine link config host =
  { engine; link; config; host; peer = None; state = Closed;
    on_established = (fun () -> ()); on_data = (fun _ -> ());
    chunks = Queue.create (); write_end = 0; out_marks = []; snd_una = 0;
    snd_nxt = 0;
    cwnd = float_of_int config.init_cwnd_segments;
    ssthresh = 1e9; seg_ends = [];
    dupacks = 0; recover = -1; rto = initial_rto;
    srtt = None; rttvar = 0.; rto_timer = None; sample = None;
    high_water = 0; syn_sent_at = nan; in_recovery = false;
    fin_pending = false; rcv_nxt = 0; ooo = []; unacked_segs = 0;
    pending_deliveries = 0; agg_timer = None; delack_timer = None;
    wire_bytes = 0; pkts = 0; rtx_fast = 0; rtx_timeout = 0;
    rtt_meas = 0; next_pkt_id = 0 }

(* trace emission: counters for congestion-window / flight evolution and
   instants for every retransmission and transmitted packet. All are
   no-ops when tracing is disabled and never touch TCP state. *)
let note_cwnd t =
  Trace.Sink.counter ~track:(Host.name t.host) ~name:"cwnd"
    (Engine.now t.engine) t.cwnd

let note_flight t =
  Trace.Sink.counter ~track:(Host.name t.host) ~name:"flight"
    (Engine.now t.engine)
    (float_of_int (List.length t.seg_ends))

let note_retransmit t reason =
  if Trace.Sink.enabled () then
    Trace.Sink.instant ~track:(Host.name t.host) ~cat:"tcp" ~name:"retransmit"
      ~args:[ ("reason", reason) ]
      (Engine.now t.engine)

let note_tx t ~flags ~payload ~seq ~ack_seq =
  if Trace.Sink.enabled () then begin
    let kind =
      if flags.Packet.syn && flags.Packet.ack then "tx SYN-ACK"
      else if flags.Packet.syn then "tx SYN"
      else if flags.Packet.fin then "tx FIN"
      else if String.length payload > 0 then "tx data"
      else "tx ACK"
    in
    Trace.Sink.instant ~track:(Host.name t.host) ~cat:"tcp" ~name:kind
      ~args:
        [ ("seq", string_of_int seq); ("ack", string_of_int ack_seq);
          ("len", string_of_int (String.length payload)) ]
      (Engine.now t.engine)
  end

let rec deliver_to t packet =
  (* charge kernel receive cost, then process *)
  Host.charge_async t.host ~ms:kernel_cost_ms_per_packet ~lib:"kernel";
  handle t packet

and emit t ~flags ?(payload = "") ?(marks = []) ~seq ~ack_seq () =
  let peer = Option.get t.peer in
  let packet =
    { Packet.id = t.next_pkt_id; src = Host.name t.host;
      dst = Host.name peer.host; flags; seq; ack_seq; payload; marks }
  in
  t.next_pkt_id <- t.next_pkt_id + 1;
  t.wire_bytes <- t.wire_bytes + Packet.wire_bytes packet;
  t.pkts <- t.pkts + 1;
  note_tx t ~flags ~payload ~seq ~ack_seq;
  Host.charge_async t.host ~ms:kernel_cost_ms_per_packet ~lib:"kernel";
  Link.send t.link packet ~deliver:(fun p -> deliver_to peer p)

and send_ack t =
  cancel_delack t;
  cancel_timer t `Agg;
  t.unacked_segs <- 0;
  t.pending_deliveries <- 0;
  emit t ~flags:Packet.ack_flags ~seq:t.snd_nxt ~ack_seq:t.rcv_nxt ()

and cancel_timer t which =
  let slot = match which with `Agg -> t.agg_timer | `Delack -> t.delack_timer in
  (match slot with
  | None -> ()
  | Some h -> h.Engine.cancelled <- true);
  match which with
  | `Agg -> t.agg_timer <- None
  | `Delack -> t.delack_timer <- None

and cancel_delack t = cancel_timer t `Delack

(* GRO-flavoured delayed ACKs, matching the testbed's ixgbe defaults:
   back-to-back in-order segments coalesce into aggregates of up to four
   (closed 25 us after the last arrival); classic delayed ACK then runs
   on aggregates -- ACK on the second aggregate or after 40 ms. Any data
   we send piggybacks the ACK. This reproduces the paper's per-handshake
   ACK volumes (Table 2 data-sent columns). *)
and close_aggregate t =
  cancel_timer t `Agg;
  if t.unacked_segs > 0 then begin
    t.unacked_segs <- 0;
    t.pending_deliveries <- t.pending_deliveries + 1;
    if t.pending_deliveries >= 2 then send_ack t
    else if t.delack_timer = None then
      t.delack_timer <-
        Some (Engine.schedule_cancellable t.engine ~delay:0.04 (fun () ->
                  t.delack_timer <- None;
                  if t.pending_deliveries > 0 || t.unacked_segs > 0 then
                    send_ack t))
  end

and ack_in_order t =
  t.unacked_segs <- t.unacked_segs + 1;
  if t.unacked_segs >= 4 then close_aggregate t
  else begin
    cancel_timer t `Agg;
    t.agg_timer <-
      Some (Engine.schedule_cancellable t.engine ~delay:25e-6 (fun () ->
                t.agg_timer <- None;
                close_aggregate t))
  end

and arm_rto t =
  cancel_rto t;
  let handle =
    Engine.schedule_cancellable t.engine ~delay:t.rto (fun () -> on_rto t)
  in
  t.rto_timer <- Some handle

and cancel_rto t =
  match t.rto_timer with
  | None -> ()
  | Some h ->
    h.Engine.cancelled <- true;
    t.rto_timer <- None

and in_flight_segs t = List.length t.seg_ends

and on_rto t =
  t.rto_timer <- None;
  if t.snd_una < t.snd_nxt then begin
    t.ssthresh <- Float.max (float_of_int (in_flight_segs t) /. 2.) 2.;
    t.cwnd <- 1.;
    t.rto <- Float.min (2. *. t.rto) max_rto;
    t.dupacks <- 0;
    t.in_recovery <- false;
    t.sample <- None (* Karn: no RTT sample across retransmission *);
    (* go-back-N: the whole flight is considered lost; without this the
       stale in-flight accounting would pin the window shut and recovery
       would degenerate to one segment per backed-off RTO *)
    t.seg_ends <- [];
    t.snd_nxt <- t.snd_una;
    t.rtx_timeout <- t.rtx_timeout + 1;
    note_retransmit t "rto";
    note_cwnd t;
    note_flight t;
    try_send t;
    arm_rto t
  end

and segment_marks t lo hi =
  List.filter (fun (off, _) -> off >= lo && off < hi) t.out_marks

(* the stream's bytes [lo, lo + len), cut from the chunks, which cover
   everything from snd_una on: a substring of the chunk holding them
   all, or else the pieces of each blitted together *)
and stream_sub t lo len =
  let hi = lo + len in
  let holds (base, s) = base <= lo && hi <= base + String.length s in
  match Seq.find holds (Queue.to_seq t.chunks) with
  | Some (base, s) -> String.sub s (lo - base) len
  | None ->
    let buf = Bytes.create len in
    Queue.iter
      (fun (base, s) ->
        let a = max lo base and b = min hi (base + String.length s) in
        if a < b then Bytes.blit_string s (a - base) buf (a - lo) (b - a))
      t.chunks;
    Bytes.to_string buf

(* nothing below snd_una is read again: retransmissions start there *)
and drop_acked_chunks t =
  match Queue.peek_opt t.chunks with
  | Some (base, s) when base + String.length s <= t.snd_una ->
    ignore (Queue.pop t.chunks);
    drop_acked_chunks t
  | _ -> ()

and retransmit_first t =
  let len = min mss (t.write_end - t.snd_una) in
  if len > 0 then begin
    t.rtx_fast <- t.rtx_fast + 1;
    note_retransmit t "fast";
    let payload = stream_sub t t.snd_una len in
    emit t ~flags:Packet.plain_flags ~payload
      ~marks:(segment_marks t t.snd_una (t.snd_una + len))
      ~seq:t.snd_una ~ack_seq:t.rcv_nxt ()
  end

and try_send t =
  if t.state = Established || t.state = Fin_sent then begin
    let made_progress = ref false in
    let continue = ref true in
    while !continue do
      let unsent = t.write_end - t.snd_nxt in
      let window_open = float_of_int (in_flight_segs t) < t.cwnd in
      let len = min mss unsent in
      if len <= 0 || not window_open then continue := false
      else begin
        let payload = stream_sub t t.snd_nxt len in
        let marks = segment_marks t t.snd_nxt (t.snd_nxt + len) in
        emit t ~flags:Packet.plain_flags ~payload ~marks ~seq:t.snd_nxt
          ~ack_seq:t.rcv_nxt ();
        (* Karn: only first transmissions (beyond the high-water mark)
           may seed RTT samples *)
        if t.sample = None && t.snd_nxt >= t.high_water then
          t.sample <- Some (t.snd_nxt + len, Engine.now t.engine);
        t.snd_nxt <- t.snd_nxt + len;
        t.high_water <- max t.high_water t.snd_nxt;
        t.seg_ends <- t.snd_nxt :: t.seg_ends;
        cancel_delack t;
        cancel_timer t `Agg;
        t.unacked_segs <- 0;
        t.pending_deliveries <- 0;
        made_progress := true
      end
    done;
    if !made_progress && t.rto_timer = None then arm_rto t;
    maybe_send_fin t
  end

and maybe_send_fin t =
  if t.fin_pending && t.snd_nxt = t.write_end && t.snd_una = t.snd_nxt
     && t.state = Established
  then begin
    t.state <- Fin_sent;
    emit t ~flags:Packet.fin_flags ~seq:t.snd_nxt ~ack_seq:t.rcv_nxt ()
  end

and rtt_sample t r =
  let r = Float.max r 1e-6 in
  t.rtt_meas <- t.rtt_meas + 1;
  (match t.srtt with
  | None ->
    t.srtt <- Some r;
    t.rttvar <- r /. 2.
  | Some srtt ->
    t.rttvar <- (0.75 *. t.rttvar) +. (0.25 *. Float.abs (srtt -. r));
    t.srtt <- Some ((0.875 *. srtt) +. (0.125 *. r)));
  let srtt = Option.get t.srtt in
  t.rto <- Float.max min_rto (Float.min max_rto (srtt +. (4. *. t.rttvar)))

and update_rtt t now =
  match t.sample with
  | Some (end_seq, tx_time) when t.snd_una >= end_seq ->
    t.sample <- None;
    rtt_sample t (now -. tx_time)
  | _ -> ()

and handle_ack t (p : Packet.t) =
  if p.ack_seq > t.snd_una then begin
    t.snd_una <- p.ack_seq;
    drop_acked_chunks t;
    (* a late pre-loss ACK can overtake a go-back-N reset of snd_nxt *)
    if t.snd_nxt < t.snd_una then t.snd_nxt <- t.snd_una;
    (* drop every covered segment record, wherever it sits: retransmitted
       ranges can leave the list unsorted *)
    let acked, remaining = List.partition (fun e -> e <= p.ack_seq) t.seg_ends in
    t.seg_ends <- remaining;
    let acked_segs = float_of_int (List.length acked) in
    t.dupacks <- 0;
    update_rtt t (Engine.now t.engine);
    (* new data acknowledged: discard any exponential RTO backoff, as
       Linux does — without this a loss burst leaves a 60 s timer armed
       for the rest of the connection *)
    (match t.srtt with
    | Some srtt ->
      t.rto <- Float.max min_rto (Float.min max_rto (srtt +. (4. *. t.rttvar)))
    | None -> t.rto <- initial_rto);
    (* congestion control: slow start doubles per RTT, then AIMD *)
    if t.in_recovery then begin
      if t.snd_una >= t.recover then begin
        (* full recovery: deflate to ssthresh *)
        t.in_recovery <- false;
        t.cwnd <- t.ssthresh
      end
      else begin
        (* NewReno partial ACK: the next segment is missing too *)
        retransmit_first t
      end
    end
    else if t.cwnd < t.ssthresh then t.cwnd <- t.cwnd +. acked_segs
    else t.cwnd <- t.cwnd +. (acked_segs /. t.cwnd);
    note_cwnd t;
    note_flight t;
    if t.snd_una = t.snd_nxt then cancel_rto t else arm_rto t;
    try_send t
  end
  (* any ACK that fails to advance snd_una while data is outstanding is
     a duplicate — including ACKs piggybacked on data segments, which
     Linux counts toward fast retransmit just the same *)
  else if p.ack_seq = t.snd_una && t.snd_una < t.snd_nxt then begin
    t.dupacks <- t.dupacks + 1;
    if t.dupacks = 3 && not t.in_recovery then begin
      (* fast retransmit, NewReno style *)
      t.ssthresh <- Float.max (float_of_int (in_flight_segs t) /. 2.) 2.;
      t.cwnd <- t.ssthresh +. 3.;
      note_cwnd t;
      t.recover <- t.snd_nxt;
      t.in_recovery <- true;
      t.sample <- None;
      retransmit_first t;
      arm_rto t
    end
    else if t.in_recovery then begin
      (* inflate so new data can keep flowing during recovery *)
      t.cwnd <- t.cwnd +. 1.;
      note_cwnd t;
      try_send t
    end
  end

and handle_payload t (p : Packet.t) =
  let seq = p.seq and len = String.length p.payload in
  if len > 0 then begin
    if seq = t.rcv_nxt then begin
      t.rcv_nxt <- t.rcv_nxt + len;
      t.on_data p.payload;
      (* drain any contiguous out-of-order segments *)
      let rec drain () =
        match List.assoc_opt t.rcv_nxt t.ooo with
        | Some payload ->
          t.ooo <- List.remove_assoc t.rcv_nxt t.ooo;
          t.rcv_nxt <- t.rcv_nxt + String.length payload;
          t.on_data payload;
          drain ()
        | None -> ()
      in
      drain ();
      ack_in_order t
    end
    else if seq > t.rcv_nxt then begin
      if not (List.mem_assoc seq t.ooo) then t.ooo <- (seq, p.payload) :: t.ooo;
      send_ack t (* duplicate ACK *)
    end
    else send_ack t (* stale retransmission *)
  end

and handle t (p : Packet.t) =
  match t.state with
  | Closed when p.flags.syn && not p.flags.ack ->
    t.state <- Syn_received;
    t.syn_sent_at <- Engine.now t.engine;
    emit t ~flags:Packet.synack_flags ~seq:0 ~ack_seq:0 ()
  | Syn_received when p.flags.syn && not p.flags.ack ->
    (* our SYN-ACK was lost and the client retransmitted its SYN *)
    t.rtx_timeout <- t.rtx_timeout + 1;
    note_retransmit t "synack";
    t.syn_sent_at <- nan;
    emit t ~flags:Packet.synack_flags ~seq:0 ~ack_seq:0 ()
  | Syn_sent when p.flags.syn && p.flags.ack ->
    t.state <- Established;
    note_cwnd t;
    if not (Float.is_nan t.syn_sent_at) then
      rtt_sample t (Engine.now t.engine -. t.syn_sent_at);
    send_ack t;
    t.on_established ();
    try_send t
  | Syn_received when p.flags.ack && not p.flags.syn ->
    t.state <- Established;
    note_cwnd t;
    if not (Float.is_nan t.syn_sent_at) then
      rtt_sample t (Engine.now t.engine -. t.syn_sent_at);
    handle_ack t p;
    handle_payload t p;
    try_send t
  | Established | Fin_sent ->
    if p.flags.syn then () (* duplicate SYN after establishment: ignore *)
    else begin
      if p.flags.fin then begin
        (* the FIN occupies one sequence slot, so advancing rcv_nxt past
           it makes a retransmitted FIN recognisably stale (its seq is
           now below rcv_nxt) and keeps its payload from being delivered
           twice; we do not model TIME_WAIT *)
        if p.seq = t.rcv_nxt then begin
          if String.length p.payload > 0 then t.on_data p.payload;
          t.rcv_nxt <- t.rcv_nxt + String.length p.payload + 1
        end;
        send_ack t
      end
      else begin
        handle_ack t p;
        handle_payload t p
      end
    end
  | Closed | Syn_sent | Syn_received -> ()
(* retransmitted handshake segments in odd states: ignored; the SYN
   retransmission timer below recovers lost handshakes *)

let create_pair engine link config ~client ~server =
  let c = make engine link config client in
  let s = make engine link config server in
  c.peer <- Some s;
  s.peer <- Some c;
  (c, s)

let rec send_syn t attempt =
  if t.state = Syn_sent then begin
    if attempt > 0 then begin
      t.rtx_timeout <- t.rtx_timeout + 1;
      note_retransmit t "syn"
    end;
    (* Karn: a retransmitted SYN invalidates the handshake RTT sample *)
    t.syn_sent_at <- (if attempt = 0 then Engine.now t.engine else nan);
    emit t ~flags:Packet.syn_flags ~seq:0 ~ack_seq:0 ();
    (* jiffy rounding: Linux arms the SYN timer slightly past 1 s, which
       matters when the emulated RTT is exactly 1 s (Table 4) *)
    let delay = initial_rto *. 1.1 *. Float.pow 2. (float_of_int attempt) in
    Engine.schedule t.engine ~delay (fun () ->
        if t.state = Syn_sent then send_syn t (attempt + 1))
  end

let connect t ~on_established =
  t.on_established <- on_established;
  t.state <- Syn_sent;
  send_syn t 0

let on_receive t f = t.on_data <- f

let write_parts t ?(marks = []) parts =
  let base = t.write_end in
  if Trace.Sink.enabled () then
    List.iter
      (fun (_, label) ->
        Trace.Sink.instant ~track:(Host.name t.host) ~cat:"tls"
          ~name:("send " ^ label)
          (Engine.now t.engine))
      marks;
  List.iter
    (fun s ->
      if String.length s > 0 then begin
        Queue.push (t.write_end, s) t.chunks;
        t.write_end <- t.write_end + String.length s
      end)
    parts;
  t.out_marks <-
    t.out_marks @ List.map (fun (off, label) -> (base + off, label)) marks;
  try_send t

let write t ?marks data = write_parts t ?marks [ data ]

let close t =
  t.fin_pending <- true;
  maybe_send_fin t

let bytes_sent t = t.wire_bytes
let packets_sent t = t.pkts
let fast_retransmissions t = t.rtx_fast
let timeout_retransmissions t = t.rtx_timeout
let rtt_samples t = t.rtt_meas
