(* The traced run. It drives the workload's cells one public call at a
   time on one domain, records a host-time span around each call, and
   counts the work each layer did from outcomes and virtual-time trace
   buffers. Micro-benchmarked unit costs turn those exact counts into a
   modelled breakdown of the cell time; what the model misses is
   reported as unexplained. *)

open Common

let origin = Core.Clock.now_s ()

(* ---- the grids ----------------------------------------------------------- *)

type cell = Std of Core.Experiment.spec | Farm of Core.Experiment.farm_spec

(* Report.table5_smoke's grid. Report builds it as
   [capacity ^ "\n" ^ attack] and OCaml evaluates those operands right to
   left, so the attack cells are recorded first. *)
let farm_smoke_grid ~seed =
  let spec ?profile ?utilization ?adv_fraction ~max_connections (k, s) =
    Farm
      (Core.Experiment.farm_spec ~seed ?profile ?utilization ?adv_fraction
         ~servers:2 ~duration_s:0.4 ~max_connections (Pqc.Registry.find_kem k)
         (Pqc.Registry.find_sig s))
  in
  let attack =
    List.map
      (fun adv_fraction ->
        spec ~utilization:0.90 ~adv_fraction ~max_connections:200
          ("kyber512", "sphincs128"))
      [ 0.; 0.3 ]
  in
  let capacity =
    List.concat_map
      (fun pair ->
        List.map
          (fun profile -> spec ~profile ~max_connections:240 pair)
          [ "poisson"; "flash-crowd" ])
      [ ("x25519", "rsa:2048"); ("kyber768", "dilithium3") ]
  in
  attack @ capacity

(* Report.ablation_hrr's grid *)
let hrr_grid ~seed =
  List.concat_map
    (fun (k, s) ->
      List.concat_map
        (fun scenario ->
          List.map
            (fun wrong_key_share ->
              Std
                (Core.Experiment.spec ~seed ~scenario ~wrong_key_share
                   (Pqc.Registry.find_kem k) (Pqc.Registry.find_sig s)))
            [ false; true ])
        Core.Scenario.[ no_emulation; five_g; high_delay ])
    [ ("x25519", "rsa:2048"); ("kyber768", "dilithium3");
      ("p521_kyber1024", "p521_dilithium5") ]

(* The catalog grids rebuilt from [Experiment] specs, mirroring Report;
   the artifact comparison with the untraced campaign proves they match. *)
let grid ~seed = function
  | "all-kem" ->
    List.map
      (fun k -> Std (Core.Experiment.spec ~seed k Pqc.Registry.baseline_sig))
      Pqc.Registry.kems
  | "all-sig" ->
    List.map
      (fun s -> Std (Core.Experiment.spec ~seed Pqc.Registry.baseline_kem s))
      Pqc.Registry.sigs
  | "ablation-hrr" -> hrr_grid ~seed
  | "farm-smoke" -> farm_smoke_grid ~seed
  | name -> invalid_arg ("no traced grid for " ^ name)

(* ---- counts -------------------------------------------------------------- *)

module Ops = Map.Make (String)

type counts = {
  mutable run_s : float;
  mutable traced_s : float;
  mutable record_s : float;
  mutable store_s : float;
  mutable find_s : float;
  mutable handshakes : int;
  mutable wire_bytes : int;
  mutable dists : int;
  mutable dist_samples : int;
  mutable events : int;
  mutable packets : int;
  mutable retransmissions : int;
  mutable charges : int;
  mutable app_charges : int;  (** charges outside the per-packet kernel cost *)
  mutable messages : int;
  mutable payload_bytes : int;
  mutable kem_ops : int;
  mutable sig_ops : int;
  mutable pqc_ops : int Ops.t;  (** per cpu-span label ("encaps kyber512") *)
}

let count_events c buf =
  let pqc_op label =
    Ops.update label (fun n -> Some (1 + Option.value n ~default:0))
  in
  c.events <- c.events + Trace.Buf.length buf;
  Trace.Buf.iter buf (function
    | Trace.Event.Span { s_cat = "cpu"; s_name; s_args; _ } -> (
      c.charges <- c.charges + 1;
      if List.assoc_opt "lib" s_args <> Some "kernel" then
        c.app_charges <- c.app_charges + 1;
      match String.split_on_char ' ' s_name with
      | [ ("keygen" | "encaps" | "decaps"); _ ] ->
        c.kem_ops <- c.kem_ops + 1;
        c.pqc_ops <- pqc_op s_name c.pqc_ops
      | [ ("sign" | "verify"); _ ] ->
        c.sig_ops <- c.sig_ops + 1;
        c.pqc_ops <- pqc_op s_name c.pqc_ops
      | _ -> ())
    | Trace.Event.Span { s_cat = "message"; _ } ->
      c.messages <- c.messages + 1
    | Trace.Event.Instant { i_cat = "tcp"; i_name = "retransmit"; _ } ->
      c.retransmissions <- c.retransmissions + 1
    | Trace.Event.Instant { i_cat = "tcp"; i_name; i_args; _ }
      when String.starts_with ~prefix:"tx " i_name ->
      c.packets <- c.packets + 1;
      c.payload_bytes <-
        c.payload_bytes
        + Option.fold ~none:0 ~some:int_of_string (List.assoc_opt "len" i_args)
    | _ -> ())

(* ---- one cell, stage by stage -------------------------------------------- *)

let span buf ~label ~cat ~name f =
  let t0 = Core.Clock.now_s () in
  let r = f () in
  let t1 = Core.Clock.now_s () in
  Trace.Buf.span buf ~track:"host" ~cat ~name
    ~args:[ ("cell", label) ]
    (t0 -. origin) (t1 -. origin);
  (r, t1 -. t0)

(* The stages every cell kind goes through; [tally] takes the counts an
   outcome carries. *)
type 'o stages = {
  label : string;
  run : ?trace:Trace.Buf.t -> unit -> 'o;
  run_name : string;
  record : Core.Metrics.t -> 'o -> unit;
  record_name : string;
  key : unit -> string;
  store : string -> 'o -> unit;
  find : string -> 'o option;
  tally : 'o -> unit;
}

(* Returns the cell's host-time spans and a replay of what a warm
   [Exec.cells] does for it: a cache lookup and a recording. *)
let drive c ~metrics st =
  let host = Trace.Buf.create ~label:st.label () in
  let span cat name f = span host ~label:st.label ~cat ~name f in
  let t0 = Core.Clock.now_s () in
  let o, dt = span "Core.Experiment" st.run_name (fun () -> st.run ()) in
  c.run_s <- c.run_s +. dt;
  st.tally o;
  let (), dt =
    span "Core.Metrics" st.record_name (fun () -> st.record metrics o)
  in
  c.record_s <- c.record_s +. dt;
  let k, _ = span "Core.Result_cache" "key" st.key in
  let (), dt = span "Core.Result_cache" "store" (fun () -> st.store k o) in
  c.store_s <- c.store_s +. dt;
  let found, dt = span "Core.Result_cache" "find" (fun () -> st.find k) in
  c.find_s <- c.find_s +. dt;
  if compare found (Some o) <> 0 then
    fail "%s: the cache returned another outcome" st.label;
  (* last, so the event buffer is not live while the stages above run *)
  let virt = Trace.Buf.create ~label:st.label () in
  let traced, dt =
    span "Trace.Sink" (st.run_name ^ " (traced)") (fun () ->
        st.run ~trace:virt ())
  in
  c.traced_s <- c.traced_s +. dt;
  if compare o traced <> 0 then fail "%s: tracing changed the outcome" st.label;
  count_events c virt;
  Trace.Buf.span host ~track:"host" ~cat:"cell" ~name:st.label
    ~args:[ ("cell", st.label) ]
    (t0 -. origin)
    (Core.Clock.now_s () -. origin);
  let replay m =
    match st.find (st.key ()) with
    | Some o -> st.record m o
    | None -> fail "%s: missing from the cache" st.label
  in
  (host, replay)

let run_cell c ~metrics ~cache = function
  | Std sp ->
    let module E = Core.Experiment in
    drive c ~metrics
      { label = E.spec_label sp;
        run = (fun ?trace () -> E.run_spec ?trace sp);
        run_name = "run_spec";
        record = (fun m o -> Core.Metrics.record_cell m sp (Ok o));
        record_name = "record_cell";
        key = (fun () -> Core.Result_cache.key cache sp);
        store = Core.Result_cache.store cache;
        find = Core.Result_cache.find cache;
        tally =
          (fun o ->
            let n = List.length o.E.samples in
            c.handshakes <- c.handshakes + n;
            List.iter
              (fun s ->
                c.wire_bytes <-
                  c.wire_bytes + s.E.client_bytes + s.E.server_bytes)
              o.E.samples;
            (* part A/B, total, iteration, two byte and two packet
               distributions per cell (the catalog runs the full mix) *)
            c.dists <- c.dists + 8;
            c.dist_samples <- c.dist_samples + (8 * n)) }
  | Farm fs ->
    let module E = Core.Experiment in
    drive c ~metrics
      { label = E.farm_spec_label fs;
        run =
          (fun ?trace () ->
            match trace with
            | None -> E.run_farm_spec fs
            | Some buf ->
              Trace.Sink.run_with buf (fun () -> E.run_farm_spec fs));
        run_name = "run_farm_spec";
        record = (fun m o -> Core.Metrics.record_farm_cell m fs (Ok o));
        record_name = "record_farm_cell";
        key = (fun () -> Core.Result_cache.farm_key cache fs);
        store = Core.Result_cache.store_farm cache;
        find = Core.Result_cache.find_farm cache;
        tally =
          (fun o ->
            c.handshakes <- c.handshakes + o.E.fo_completed;
            c.wire_bytes <-
              c.wire_bytes + o.E.fo_benign_client_bytes
              + o.E.fo_benign_server_bytes + o.E.fo_adv_client_bytes
              + o.E.fo_adv_server_bytes;
            (* latency and wait distributions plus the p99 bootstrap *)
            let n = List.length o.E.fo_latencies_ms in
            c.dists <- c.dists + 3;
            c.dist_samples <-
              c.dist_samples + (2 * n) + List.length o.E.fo_wait_ms) }

(* ---- unit costs ---------------------------------------------------------- *)

(* Median seconds per call over 11 timed batches; a batch grows until it
   lasts a millisecond, so the clock's resolution does not dominate. *)
let per_call f =
  let time n =
    let t0 = Core.Clock.now_s () in
    for _ = 1 to n do
      ignore (Sys.opaque_identity (f ()))
    done;
    Core.Clock.elapsed_s t0 /. float_of_int n
  in
  let rec batch n =
    if n >= 65536 || time n *. float_of_int n >= 1e-3 then n else batch (2 * n)
  in
  let n = batch 1 in
  median (List.init 11 (fun _ -> time n))

let link engine =
  Netsim.Link.create engine
    (Crypto.Drbg.create ~seed:"perf")
    Netsim.Link.ideal
    ~tap:(fun _ _ -> ())

(* per scheduled-and-dispatched event *)
let engine_event_s () =
  let n = 1000 in
  per_call (fun () ->
      let e = Netsim.Engine.create () in
      for i = 1 to n do
        Netsim.Engine.schedule e ~delay:(float_of_int i *. 1e-6) ignore
      done;
      Netsim.Engine.run e)
  /. float_of_int n

(* per delivered full-size packet, its two engine events included *)
let link_packet_s () =
  let n = 500 in
  let packet =
    { Netsim.Packet.id = 0; src = "client"; dst = "server";
      flags = Netsim.Packet.plain_flags; seq = 0; ack_seq = 0;
      payload = String.make 1448 'p'; marks = [] }
  in
  per_call (fun () ->
      let e = Netsim.Engine.create () in
      let l = link e in
      for _ = 1 to n do
        Netsim.Link.send l packet ~deliver:ignore
      done;
      Netsim.Engine.run e)
  /. float_of_int n

(* per packet of a 64 kB transfer over a TCP pair: segment, ACK, link,
   engine and the per-packet kernel charge together *)
let tcp_packet_s () =
  let transfer () =
    let e = Netsim.Engine.create () in
    let client = Netsim.Host.create e ~name:"client" in
    let server = Netsim.Host.create e ~name:"server" in
    let c, s =
      Netsim.Tcp.create_pair e (link e) Netsim.Tcp.default_config ~client
        ~server
    in
    Netsim.Tcp.on_receive s ignore;
    Netsim.Tcp.connect c ~on_established:(fun () ->
        Netsim.Tcp.write c (String.make 65536 'd'));
    Netsim.Engine.run e;
    Netsim.Tcp.packets_sent c + Netsim.Tcp.packets_sent s
  in
  per_call transfer /. float_of_int (transfer ())

(* per charge with a continuation, its engine event included *)
let host_charge_s () =
  let n = 1000 in
  per_call (fun () ->
      let e = Netsim.Engine.create () in
      let h = Netsim.Host.create e ~name:"host" in
      let rec go k =
        if k > 0 then
          Netsim.Host.charge h ~op:"op" ~ms:0.01 ~lib:"libssl" ~k:(fun () ->
              go (k - 1))
      in
      go n;
      Netsim.Engine.run e)
  /. float_of_int n

(* The TLS unit costs are per byte at both endpoints: encode and decode,
   one transcript update per side, seal and open. *)
let tls_bytes = 16384

let message_byte_s () =
  let cv =
    { Tls.Messages.cv_algorithm = "dilithium3";
      cv_signature = String.make tls_bytes 's' }
  in
  per_call (fun () ->
      Tls.Messages.decode_certificate_verify
        (Tls.Messages.encode_certificate_verify cv))
  /. float_of_int tls_bytes

let transcript_byte_s () =
  let msg = String.make tls_bytes 'm' in
  per_call (fun () ->
      let a = Tls.Transcript.create () and b = Tls.Transcript.create () in
      Tls.Transcript.add a msg;
      Tls.Transcript.add b msg;
      (Tls.Transcript.current a, Tls.Transcript.current b))
  /. float_of_int tls_bytes

let record_byte_s () =
  let msg = String.make tls_bytes 'r' in
  let sealer = Tls.Record.create_null () in
  let opener = Tls.Record.create_null () in
  per_call (fun () ->
      let r = Tls.Record.seal sealer Tls.Wire.Content_type.Handshake msg in
      Tls.Record.open_ opener (String.sub r 5 (String.length r - 5)))
  /. float_of_int tls_bytes

(* one full handshake's derivations: handshake secrets, both traffic
   keys, both Finished MACs and the application secrets *)
let key_schedule_hs_s () =
  let module K = Tls.Key_schedule in
  let ikm = String.make 32 'k' and th = String.make 32 'h' in
  per_call (fun () ->
      let s =
        K.handshake_secrets ~shared_secret:ikm ~hello_transcript_hash:th ()
      in
      ( K.traffic_keys s.K.client_handshake_traffic,
        K.traffic_keys s.K.server_handshake_traffic,
        K.finished_mac ~traffic_secret:s.K.server_handshake_traffic
          ~transcript_hash:th,
        K.finished_mac ~traffic_secret:s.K.client_handshake_traffic
          ~transcript_hash:th,
        K.application_secrets ~master:s.K.master ~finished_transcript_hash:th ))

let dist_s n =
  let xs = List.init n (fun i -> float_of_int (i * 7919 mod 1009)) in
  per_call (fun () -> Core.Metrics.dist ~seed:"perf" xs)

(* The mocked operation a cpu-span label names, timed; [None] for labels
   that name no registry algorithm. *)
let pqc_op_s label =
  let rng = Crypto.Drbg.create ~seed:"perf/pqc" in
  let msg =
    Tls.Messages.cv_signed_content ~transcript_hash:(String.make 32 'h')
  in
  match String.split_on_char ' ' label with
  | [ (("keygen" | "encaps" | "decaps") as kind); alg ] -> (
    match Pqc.Kem.mocked (Pqc.Registry.find_kem alg) with
    | exception Not_found -> None
    | k ->
      let kp = k.Pqc.Kem.keygen rng in
      let ct, _ = k.Pqc.Kem.encaps rng kp.Pqc.Kem.public in
      Some
        (per_call
           (match kind with
           | "keygen" -> fun () -> ignore (k.Pqc.Kem.keygen rng)
           | "encaps" ->
             fun () -> ignore (k.Pqc.Kem.encaps rng kp.Pqc.Kem.public)
           | _ -> fun () -> ignore (k.Pqc.Kem.decaps kp.Pqc.Kem.secret ct))))
  | [ (("sign" | "verify") as kind); alg ] -> (
    match Pqc.Sigalg.mocked (Pqc.Registry.find_sig alg) with
    | exception Not_found -> None
    | s ->
      let kp = s.Pqc.Sigalg.keygen rng in
      let signature = s.Pqc.Sigalg.sign rng ~secret:kp.Pqc.Sigalg.secret msg in
      Some
        (per_call
           (if kind = "sign" then fun () ->
              ignore (s.Pqc.Sigalg.sign rng ~secret:kp.Pqc.Sigalg.secret msg)
            else fun () ->
              ignore
                (s.Pqc.Sigalg.verify ~public:kp.Pqc.Sigalg.public ~msg
                   signature))))
  | _ -> None

(* ---- the run ------------------------------------------------------------- *)

let dir_bytes dir =
  Array.fold_left
    (fun (files, bytes) f ->
      (files + 1, bytes + (Unix.stat (Filename.concat dir f)).Unix.st_size))
    (0, 0) (Sys.readdir dir)

(* Exec and pool metrics come from one untraced campaign run as the
   end-to-end runs are: they describe Exec's own bookkeeping around the
   cells, which the stage-by-stage pass bypasses. *)
let exec_metrics ~seed (w : Manifest.workload) =
  let e = List.hd (E2e.campaigns ~seed ~seconds:0 w) in
  let walls = e.E2e.cell_walls in
  let busy = List.fold_left ( +. ) 0. walls in
  let ms p = 1000. *. Core.Stats.percentile p walls in
  ( e,
    [ ("exec.cells", float_of_int (e.E2e.executed + e.E2e.from_cache));
      ("exec.cells_from_cache", float_of_int e.E2e.from_cache);
      ("exec.cell_wall_p50_ms", ms 0.5);
      ("exec.cell_wall_p90_ms", ms 0.9);
      ("exec.cell_wall_max_ms", ms 1.);
      ("pool.busy_frac", busy /. (float_of_int E2e.jobs *. e.E2e.wall_s));
      ("exec.serial_s", e.E2e.wall_s -. (busy /. float_of_int E2e.jobs)) ] )

let measure ~seed (w : Manifest.workload) =
  let e2e, exec_values = exec_metrics ~seed w in
  let metrics = Core.Metrics.create () in
  List.iter (Core.Metrics.note_experiment metrics) w.Manifest.experiments;
  let cache_dir = fresh_dir (w.Manifest.name ^ "-layers") in
  let cache = Core.Result_cache.create ~dir:cache_dir in
  let c =
    { run_s = 0.; traced_s = 0.; record_s = 0.; store_s = 0.; find_s = 0.;
      handshakes = 0; wire_bytes = 0; dists = 0; dist_samples = 0; events = 0;
      packets = 0; retransmissions = 0; charges = 0; app_charges = 0;
      messages = 0; payload_bytes = 0; kem_ops = 0; sig_ops = 0;
      pqc_ops = Ops.empty }
  in
  let cells = List.concat_map (grid ~seed) w.Manifest.experiments in
  let cell_bufs, replays =
    List.split (List.map (run_cell c ~metrics ~cache) cells)
  in
  let wl = Trace.Buf.create ~label:("workload " ^ w.Manifest.name) () in
  let span cat name f = span wl ~label:w.Manifest.name ~cat ~name f in
  let artifact, serialize_s =
    span "Core.Metrics" "to_json_string" (fun () ->
        Core.Metrics.to_json_string (Core.Metrics.artifact metrics ~seed))
  in
  if artifact <> e2e.E2e.artifact then
    fail "%s: the traced grid's artifact differs from the catalog's"
      w.Manifest.name;
  let entries, entry_bytes = dir_bytes cache_dir in
  (* rendering is what the warm run does beyond its lookups and
     recordings, replayed just before it; both start from a collected
     heap so the traced pass's garbage is charged to neither *)
  Gc.full_major ();
  let (), replay_s =
    span "Core.Result_cache" "find + record (replay)" (fun () ->
        let m = Core.Metrics.create () in
        List.iter (fun replay -> replay m) replays)
  in
  let exec = Core.Exec.create ~jobs:1 ~cache_dir () in
  Gc.full_major ();
  let report, warm_s =
    span "Core.Catalog" "run (warm)" (fun () ->
        String.concat ""
          (List.map
             (fun name ->
               Core.Metrics.note_experiment exec.Core.Exec.metrics name;
               Core.Catalog.run ~seed ~exec name)
             w.Manifest.experiments))
  in
  rm_rf cache_dir;
  if report <> e2e.E2e.report then
    fail "%s: the warm catalog run rendered another report" w.Manifest.name;
  if Core.Metrics.counter exec.Core.Exec.metrics "cells_executed" > 0 then
    fail "%s: the warm catalog run executed cells" w.Manifest.name;
  let trace_file = Filename.concat work_dir (w.Manifest.name ^ ".trace.json") in
  Out_channel.with_open_text trace_file (fun oc ->
      output_string oc (Trace.Export.chrome (cell_bufs @ [ wl ])));
  Printf.eprintf "wrote %s\n%!" trace_file;
  let tcp = tcp_packet_s () and charge = host_charge_s () in
  let msg = message_byte_s () and transcript = transcript_byte_s () in
  let record = record_byte_s () and ks = key_schedule_hs_s () in
  let netsim =
    (float_of_int c.packets *. tcp) +. (float_of_int c.app_charges *. charge)
  in
  let tls =
    (float_of_int c.payload_bytes *. (msg +. transcript +. record))
    +. (float_of_int c.handshakes *. ks)
  in
  let pqc =
    Ops.fold
      (fun label n acc ->
        match pqc_op_s label with
        | Some s -> acc +. (float_of_int n *. s)
        | None -> acc)
      c.pqc_ops 0.
  in
  let unexplained = c.run_s -. netsim -. tls -. pqc in
  let count n = float_of_int n in
  let n_cells = List.length cells in
  let values =
    exec_values
    @ [ ("experiment.run_spec_s", c.run_s);
        ("experiment.handshakes", count c.handshakes);
        ("experiment.run_spec_us_per_hs", 1e6 *. c.run_s /. count c.handshakes);
        ("metrics.record_cell_s", c.record_s);
        ("metrics.record_cell_ms_per_cell", 1e3 *. c.record_s /. count n_cells);
        ("metrics.dists", count c.dists);
        ("metrics.dist_samples", count c.dist_samples);
        ("stats.dist_us_n40", 1e6 *. dist_s 40);
        ("stats.dist_us_n200", 1e6 *. dist_s 200);
        ("metrics.serialize_s", serialize_s);
        ("metrics.artifact_bytes", count (String.length artifact));
        ("result_cache.store_s", c.store_s);
        ("result_cache.find_s", c.find_s);
        ("result_cache.entry_bytes", count entry_bytes /. count entries);
        ("catalog.warm_run_s", warm_s);
        ("report.render_s", warm_s -. replay_s);
        ("netsim.packets", count c.packets);
        ("netsim.retransmissions", count c.retransmissions);
        ("netsim.cpu_charges", count c.charges);
        ("netsim.wire_bytes", count c.wire_bytes);
        ("netsim.engine.event_us", 1e6 *. engine_event_s ());
        ("netsim.link.packet_us", 1e6 *. link_packet_s ());
        ("netsim.tcp.packet_us", 1e6 *. tcp);
        ("netsim.host.charge_us", 1e6 *. charge);
        ("model.netsim_s", netsim);
        ("tls.messages", count c.messages);
        ("tls.payload_bytes", count c.payload_bytes);
        ("tls.messages.byte_ns", 1e9 *. msg);
        ("tls.transcript.byte_ns", 1e9 *. transcript);
        ("tls.record.byte_ns", 1e9 *. record);
        ("tls.key_schedule.hs_us", 1e6 *. ks);
        ("model.tls_s", tls);
        ("pqc.kem_ops", count c.kem_ops);
        ("pqc.sig_ops", count c.sig_ops);
        ("model.pqc_s", pqc);
        ("trace.events", count c.events);
        ("trace.sink_overhead_frac", (c.traced_s /. c.run_s) -. 1.);
        ("model.unexplained_s", unexplained);
        ("model.unexplained_frac", unexplained /. c.run_s) ]
  in
  (n_cells, e2e.E2e.failed, values)
