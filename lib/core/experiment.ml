type sample = {
  part_a_ms : float;
  part_b_ms : float;
  total_ms : float;
  iteration_ms : float;
  client_bytes : int;
  server_bytes : int;
  client_pkts : int;
  server_pkts : int;
  fast_retransmissions : int;
  timeout_retransmissions : int;
  rtt_samples : int;
  resumed : bool;
  early_data_bytes : int;
}

type outcome = {
  samples : sample list;
  handshakes_per_minute : int;
  client_cpu_ms : float;
  server_cpu_ms : float;
  client_ledger : (string * float) list;
  server_ledger : (string * float) list;
  client_cpu_charges : int;
  server_cpu_charges : int;
}

(* the measurement loop itself burns some client/server CPU between
   handshakes (python tooling, socket teardown); shows up in Table 3 *)
let harness_python_ms = 0.45
let harness_libc_ms = 0.12

let mark_time ?after tap label =
  match Netsim.Tap.find_mark tap ?after label with
  | Some e -> e.Netsim.Tap.time
  | None -> nan

type spec = {
  sp_buffering : Tls.Config.buffering;
  sp_scenario : Scenario.t;
  sp_duration_s : float;
  sp_max_samples : int option;
  sp_seed : string;
  sp_real_crypto : bool;
  sp_tcp_config : Netsim.Tcp.config;
  sp_buffer_limit : int;
  sp_wrong_key_share : bool;
  sp_mix : Mix.t;
  sp_chain : Tls.Chain_profile.t;
  sp_kem : Pqc.Kem.t;
  sp_sig : Pqc.Sigalg.t;
}

let spec ?(buffering = Tls.Config.Optimized_push)
    ?(scenario = Scenario.no_emulation) ?(duration_s = 60.) ?max_samples
    ?(seed = "pqtls") ?(real_crypto = false)
    ?(tcp_config = Netsim.Tcp.default_config) ?(buffer_limit = 4096)
    ?(wrong_key_share = false) ?(mix = Mix.full)
    ?(chain = Tls.Chain_profile.default) kem sig_alg =
  { sp_buffering = buffering;
    sp_scenario = scenario;
    sp_duration_s = duration_s;
    sp_max_samples = max_samples;
    sp_seed = seed;
    sp_real_crypto = real_crypto;
    sp_tcp_config = tcp_config;
    sp_buffer_limit = buffer_limit;
    sp_wrong_key_share = wrong_key_share;
    sp_mix = mix;
    sp_chain = chain;
    sp_kem = kem;
    sp_sig = sig_alg }

let spec_label sp =
  Printf.sprintf "%s x %s @ %s%s%s" sp.sp_kem.Pqc.Kem.name
    sp.sp_sig.Pqc.Sigalg.name sp.sp_scenario.Scenario.name
    (match sp.sp_buffering with
    | Tls.Config.Optimized_push -> ""
    | Tls.Config.Default_buffered -> " (default-buffered)")
    (if Mix.is_full sp.sp_mix then ""
     else Printf.sprintf " [%s]" sp.sp_mix.Mix.label)
  ^
  if Tls.Chain_profile.is_default sp.sp_chain then ""
  else Printf.sprintf " {%s}" sp.sp_chain.Tls.Chain_profile.label

(* A stable, complete rendering of every input that can change the
   outcome — the pre-image of the result-cache key. Algorithms appear by
   name only: their behaviour is code, which the cache covers separately
   with the executable fingerprint. The mix and chain suffixes only
   appear for non-default values so every pre-existing cell keeps its
   cache key. *)
let spec_fingerprint sp =
  let netem = sp.sp_scenario.Scenario.netem in
  let tcp = sp.sp_tcp_config in
  Printf.sprintf
    "v1|kem=%s|sig=%s|scenario=%s|loss=%h|loss_towards=%s|delay=%h|jitter=%h|rate=%h|buffering=%s|duration=%h|max_samples=%s|seed=%s|real=%b|mss=%d|cwnd=%d|kernel_ms=%h|buffer_limit=%d|wrong_ks=%b%s"
    sp.sp_kem.Pqc.Kem.name sp.sp_sig.Pqc.Sigalg.name
    sp.sp_scenario.Scenario.name netem.Netsim.Link.loss
    (Option.value ~default:"-" netem.Netsim.Link.loss_towards)
    netem.Netsim.Link.delay_s netem.Netsim.Link.jitter_s
    netem.Netsim.Link.rate_bps
    (match sp.sp_buffering with
    | Tls.Config.Optimized_push -> "push"
    | Tls.Config.Default_buffered -> "buffered")
    sp.sp_duration_s
    (match sp.sp_max_samples with None -> "-" | Some n -> string_of_int n)
    sp.sp_seed sp.sp_real_crypto Netsim.Tcp.mss
    tcp.Netsim.Tcp.init_cwnd_segments Netsim.Tcp.kernel_cost_ms_per_packet
    sp.sp_buffer_limit sp.sp_wrong_key_share
    ((if Mix.is_full sp.sp_mix then ""
      else Printf.sprintf "|mix=%s" sp.sp_mix.Mix.name)
    ^
    if Tls.Chain_profile.is_default sp.sp_chain then ""
    else Printf.sprintf "|chain=%s" sp.sp_chain.Tls.Chain_profile.name)

let run_spec_traced sp =
  let { sp_buffering = buffering;
        sp_scenario = scenario;
        sp_duration_s = duration_s;
        sp_max_samples = max_samples;
        sp_seed = seed;
        sp_real_crypto = real_crypto;
        sp_tcp_config = tcp_config;
        sp_buffer_limit = buffer_limit;
        sp_wrong_key_share = wrong_key_share;
        sp_mix = mix;
        sp_chain = chain;
        sp_kem = kem;
        sp_sig = sig_alg } =
    sp
  in
  (* loss-free runs are deterministic, so a handful of iterations pins the
     medians; lossy runs need a population for a stable median *)
  let max_samples =
    match max_samples with
    | Some n -> n
    | None -> if scenario.Scenario.netem.Netsim.Link.loss = 0. then 40 else 200
  in
  let engine = Netsim.Engine.create () in
  let root_rng =
    Crypto.Drbg.create
      ~seed:
        (Printf.sprintf "%s/%s/%s/%s/%b" seed kem.Pqc.Kem.name
           sig_alg.Pqc.Sigalg.name scenario.Scenario.name
           (buffering = Tls.Config.Optimized_push))
  in
  let tap = Netsim.Tap.create () in
  let link =
    Netsim.Link.create engine (Crypto.Drbg.fork root_rng "link")
      scenario.Scenario.netem ~tap:(fun time p -> Netsim.Tap.tap tap time p)
  in
  let client_host = Netsim.Host.create engine ~name:"client" in
  let server_host = Netsim.Host.create engine ~name:"server" in
  let config =
    (if real_crypto then Tls.Config.make else Tls.Config.mocked) ~buffering
      ~buffer_limit ~wrong_first_key_share:wrong_key_share
      ~chain_profile:chain kem sig_alg
  in
  let samples = ref [] in
  let count = ref 0 in
  (* resumption state threads through the loop exactly as a client
     keyring would: the first connection is always full (no ticket yet),
     later ones resume whenever the mix's coin says so and a ticket is in
     hand. The coin stream is a dedicated fork so full-mix cells draw
     nothing and stay bit-identical to the pre-mix campaign. *)
  let mixing = mix.Mix.resumed > 0. in
  let mix_rng = Crypto.Drbg.fork root_rng "mix" in
  let session = ref None in
  let rec iteration () =
    if Netsim.Engine.now engine < duration_s && !count < max_samples then begin
      Netsim.Tap.clear tap;
      let started = Netsim.Engine.now engine in
      (* per-connection kernel setup (accept/socket) on the server *)
      Netsim.Host.charge_async server_host
        ~op:Pqc.Costs.connection_setup.Pqc.Costs.label
        ~ms:Pqc.Costs.connection_setup.Pqc.Costs.ms ~lib:"kernel";
      let rng = Crypto.Drbg.fork root_rng (string_of_int !count) in
      let resume =
        if mixing && Crypto.Drbg.float mix_rng < mix.Mix.resumed then !session
        else None
      in
      Tls.Handshake.run ?resume
        ~early_data:(resume <> None && mix.Mix.early_data) ~issue_ticket:mixing
        ~ticket_key:(seed ^ "/stek")
        ~on_ticket:(fun s -> session := Some s)
        ~engine ~link ~tcp_config ~client_host ~server_host ~config ~rng
        ~on_done:(fun r ->
          (* chained lookups: stale retransmissions from the previous
             connection may still be in flight when the trace restarts *)
          let t_ch = mark_time tap "CH" in
          let t_sh = mark_time tap ~after:t_ch "SH" in
          let t_fin = mark_time tap ~after:t_sh "FIN_C" in
          let finished = Netsim.Engine.now engine in
          (* measurement-loop overhead between iterations *)
          Netsim.Host.charge_async client_host ~op:"harness python"
            ~ms:harness_python_ms ~lib:"python";
          Netsim.Host.charge_async server_host ~op:"harness python"
            ~ms:harness_python_ms ~lib:"python";
          Netsim.Host.charge_async client_host ~op:"harness libc"
            ~ms:harness_libc_ms ~lib:"libc";
          Netsim.Host.charge_async server_host ~op:"harness libc"
            ~ms:harness_libc_ms ~lib:"libc";
          Netsim.Host.charge_async client_host ~op:"nic driver" ~ms:0.06
            ~lib:"ixgbe";
          Netsim.Host.charge_async server_host ~op:"nic driver" ~ms:0.06
            ~lib:"ixgbe";
          let gap = Pqc.Costs.harness_gap_ms /. 1000. in
          let sample =
            { part_a_ms = (t_sh -. t_ch) *. 1000.;
              part_b_ms = (t_fin -. t_sh) *. 1000.;
              total_ms = (t_fin -. t_ch) *. 1000.;
              iteration_ms = (finished -. started +. gap) *. 1000.;
              client_bytes = Netsim.Tcp.bytes_sent r.Tls.Handshake.client_tcp;
              server_bytes = Netsim.Tcp.bytes_sent r.Tls.Handshake.server_tcp;
              client_pkts = Netsim.Tcp.packets_sent r.Tls.Handshake.client_tcp;
              server_pkts = Netsim.Tcp.packets_sent r.Tls.Handshake.server_tcp;
              fast_retransmissions =
                Netsim.Tcp.fast_retransmissions r.Tls.Handshake.client_tcp
                + Netsim.Tcp.fast_retransmissions r.Tls.Handshake.server_tcp;
              timeout_retransmissions =
                Netsim.Tcp.timeout_retransmissions r.Tls.Handshake.client_tcp
                + Netsim.Tcp.timeout_retransmissions r.Tls.Handshake.server_tcp;
              rtt_samples =
                Netsim.Tcp.rtt_samples r.Tls.Handshake.client_tcp
                + Netsim.Tcp.rtt_samples r.Tls.Handshake.server_tcp;
              resumed = r.Tls.Handshake.resumed;
              early_data_bytes = r.Tls.Handshake.early_data_bytes }
          in
          samples := sample :: !samples;
          incr count;
          (* tracing: one "handshake" span per host (iteration start to
             that side's Finished) wrapping its message spans, and phase
             spans on a dedicated track reproducing the tap-derived
             part A / part B split of Figure 1 *)
          (if Trace.Sink.enabled () then begin
             let it = [ ("iteration", string_of_int !count) ] in
             let span_if track cat name t0 t1 =
               if not (Float.is_nan t0 || Float.is_nan t1) then
                 Trace.Sink.span ~track ~cat ~name ~args:it t0 t1
             in
             span_if "client" "handshake" "handshake" started
               r.Tls.Handshake.client_finished_at;
             span_if "server" "handshake" "handshake" started
               r.Tls.Handshake.server_finished_at;
             span_if "phases" "phase" "handshake" t_ch t_fin;
             span_if "phases" "phase" "partA CH->SH" t_ch t_sh;
             span_if "phases" "phase" "partB SH->Fin" t_sh t_fin
           end);
          Netsim.Tcp.close r.Tls.Handshake.client_tcp;
          Netsim.Tcp.close r.Tls.Handshake.server_tcp;
          Netsim.Engine.schedule engine ~delay:gap iteration)
        ()
    end
  in
  iteration ();
  Netsim.Engine.run engine ~until:(duration_s +. 120.);
  let samples = List.rev !samples in
  if samples = [] then
    invalid_arg
      (Printf.sprintf "Experiment.run_spec: no handshake completed for %s x %s"
         kem.Pqc.Kem.name sig_alg.Pqc.Sigalg.name);
  let mean_iter =
    Stats.mean (List.map (fun s -> s.iteration_ms) samples) /. 1000.
  in
  (* a per-minute rate whatever the configured duration: extrapolate
     from the mean iteration time when the sample cap cut the run short,
     otherwise scale the raw count by 60 / duration *)
  let per_minute =
    if !count >= max_samples then int_of_float (60. /. mean_iter)
    else int_of_float (float_of_int !count *. 60. /. duration_s)
  in
  let n = float_of_int !count in
  { samples;
    handshakes_per_minute = per_minute;
    client_cpu_ms = Netsim.Host.total_cpu_ms client_host /. n;
    server_cpu_ms = Netsim.Host.total_cpu_ms server_host /. n;
    client_ledger = Trace.Summary.shares (Netsim.Host.ledger client_host);
    server_ledger = Trace.Summary.shares (Netsim.Host.ledger server_host);
    client_cpu_charges = Netsim.Host.charge_count client_host;
    server_cpu_charges = Netsim.Host.charge_count server_host }

(* [trace] routes every event emitted while the cell runs (cpu spans,
   TCP instants, wire occupancy, handshake phases) into [buf] via the
   domain-local sink; [None] leaves the sink untouched, so tracing costs
   one DLS read per emission site when disabled *)
let run_spec ?trace sp =
  match trace with
  | None -> run_spec_traced sp
  | Some buf -> Trace.Sink.run_with buf (fun () -> run_spec_traced sp)

(* ---- server-farm cells (Table 5) ---------------------------------------- *)

type farm_spec = {
  fa_kem : Pqc.Kem.t;
  fa_sig : Pqc.Sigalg.t;
  fa_profile : string;
  fa_servers : int;
  fa_utilization : float;
  fa_duration_s : float;
  fa_max_connections : int;
  fa_adv_fraction : float;
  fa_seed : string;
}

type farm_outcome = {
  fo_capacity_hs_s : float;
  fo_offered_rate : float;
  fo_window_s : float;
  fo_offered : int;
  fo_completed : int;
  fo_dropped : int;
  fo_unfinished : int;
  fo_latencies_ms : float list;
  fo_wait_ms : float list;
  fo_server_cpu_ms : float;
  fo_server_busy : float;
  fo_server_ledger : (string * float) list;
  fo_per_server_completed : int list;
  fo_adv_launched : int;
  fo_adv_completed : int;
  fo_adv_client_bytes : int;
  fo_adv_server_bytes : int;
  fo_benign_client_bytes : int;
  fo_benign_server_bytes : int;
  fo_cal_client_cpu_ms : float;
  fo_cal_server_cpu_ms : float;
  fo_cal_adv_server_cpu_ms : float;
}

(* Every farm cell runs on the ideal link (scenario "none"), admits 64
   handshakes in service plus 128 waiting per server, and arms its
   adversaries with the x25519 baseline, the smallest client flight. The
   fingerprint, label and root seed spell these out as text. *)
let farm_netem = Netsim.Link.ideal
let farm_adv_kem = Pqc.Registry.baseline_kem

let farm_config ~servers =
  { Netsim.Farm.servers; max_concurrent = 64; accept_queue = 128 }

let farm_spec ?(profile = "poisson") ?(servers = 3) ?(utilization = 0.9)
    ?(duration_s = 1.) ?(max_connections = 1200) ?(adv_fraction = 0.)
    ?(seed = "pqtls") kem sig_alg =
  (* validate eagerly so a typo fails at grid-build time, not mid-cell *)
  ignore (Netsim.Workload.find profile);
  { fa_kem = kem;
    fa_sig = sig_alg;
    fa_profile = profile;
    fa_servers = servers;
    fa_utilization = utilization;
    fa_duration_s = duration_s;
    fa_max_connections = max_connections;
    fa_adv_fraction = adv_fraction;
    fa_seed = seed }

let farm_spec_label sp =
  Printf.sprintf "farm %s x %s @ none/%s u=%.2f%s" sp.fa_kem.Pqc.Kem.name
    sp.fa_sig.Pqc.Sigalg.name sp.fa_profile sp.fa_utilization
    (if sp.fa_adv_fraction > 0. then
       Printf.sprintf " adv=%.0f%%" (100. *. sp.fa_adv_fraction)
     else "")

let farm_spec_fingerprint sp =
  let config = farm_config ~servers:sp.fa_servers in
  Printf.sprintf
    "farm-v1|kem=%s|sig=%s|scenario=none|loss=%h|loss_towards=-|delay=%h|jitter=%h|rate=%h|profile=%s|policy=least-connections|servers=%d|conc=%d|queue=%d|util=%h|duration=%h|maxconn=%d|adv=%h|advkem=%s|seed=%s"
    sp.fa_kem.Pqc.Kem.name sp.fa_sig.Pqc.Sigalg.name
    farm_netem.Netsim.Link.loss farm_netem.Netsim.Link.delay_s
    farm_netem.Netsim.Link.jitter_s farm_netem.Netsim.Link.rate_bps
    sp.fa_profile sp.fa_servers
    config.Netsim.Farm.max_concurrent config.Netsim.Farm.accept_queue
    sp.fa_utilization sp.fa_duration_s sp.fa_max_connections
    sp.fa_adv_fraction farm_adv_kem.Pqc.Kem.name sp.fa_seed

(* per-iteration harness charges of the closed-loop calibration run that
   a farm server never pays: measurement-loop python + libc plus the nic
   driver touch (see [run_spec_traced]) *)
let harness_overhead_ms = harness_python_ms +. harness_libc_ms +. 0.06

(* per-handshake CPU of one side under this KA x SA on the ideal link,
   from a short closed-loop run with the harness overhead removed — the
   service rate behind "sustainable capacity" *)
let calibrate sp ~kem ~seed =
  let o = run_spec (spec ~duration_s:30. ~max_samples:8 ~seed kem sp.fa_sig) in
  ( Float.max 0.001 (o.client_cpu_ms -. harness_overhead_ms),
    Float.max 0.001 (o.server_cpu_ms -. harness_overhead_ms) )

let run_farm_spec sp =
  let cal_client, cal_server =
    calibrate sp ~kem:sp.fa_kem ~seed:(sp.fa_seed ^ "/cal")
  in
  let _, cal_adv_server =
    if sp.fa_adv_fraction > 0. then
      calibrate sp ~kem:farm_adv_kem ~seed:(sp.fa_seed ^ "/cal-adv")
    else (cal_client, cal_server)
  in
  (* one core per server: CPU-sustainable capacity of the whole farm *)
  let capacity = float_of_int sp.fa_servers *. 1000. /. cal_server in
  let rate = sp.fa_utilization *. capacity in
  (* preserve the profile shape under the connection cap by shrinking
     the window instead of truncating the stream's tail *)
  let window =
    Float.min sp.fa_duration_s (float_of_int sp.fa_max_connections /. rate)
  in
  let engine = Netsim.Engine.create () in
  let root_rng =
    Crypto.Drbg.create
      ~seed:
        (Printf.sprintf "%s/farm/%s/%s/none/%s/least-connections" sp.fa_seed
           sp.fa_kem.Pqc.Kem.name sp.fa_sig.Pqc.Sigalg.name sp.fa_profile)
  in
  let profile = Netsim.Workload.find sp.fa_profile in
  let arrivals =
    Netsim.Workload.arrivals profile
      ~rng:(Crypto.Drbg.fork root_rng "arrivals")
      ~rate ~duration_s:window
  in
  let server_hosts =
    Array.init sp.fa_servers (fun i ->
        Netsim.Host.create engine ~name:(Printf.sprintf "server%d" i))
  in
  let benign_config = Tls.Config.mocked sp.fa_kem sp.fa_sig in
  let adv_config = Tls.Config.mocked farm_adv_kem sp.fa_sig in
  let adv_launched = ref 0 and adv_completed = ref 0 in
  let adv_cb = ref 0 and adv_sb = ref 0 in
  let ben_cb = ref 0 and ben_sb = ref 0 in
  let farm =
    Netsim.Farm.create ~engine ~config:(farm_config ~servers:sp.fa_servers)
      ~arrivals
      ~launch:(fun ~server ~conn ~finished ->
        let rng = Crypto.Drbg.fork root_rng (string_of_int conn) in
        let adversarial =
          sp.fa_adv_fraction > 0.
          && Crypto.Drbg.float rng < sp.fa_adv_fraction
        in
        if adversarial then incr adv_launched;
        let server_host = server_hosts.(server) in
        (* every client is its own machine: one fresh single-core host
           per connection *)
        let client_host = Netsim.Host.create engine ~name:"client" in
        let link =
          Netsim.Link.create engine
            (Crypto.Drbg.fork rng "link")
            farm_netem
            ~tap:(fun _ _ -> ())
        in
        Netsim.Host.charge_async server_host
          ~op:Pqc.Costs.connection_setup.Pqc.Costs.label
          ~ms:Pqc.Costs.connection_setup.Pqc.Costs.ms ~lib:"kernel";
        Tls.Handshake.run ~engine ~link ~tcp_config:Netsim.Tcp.default_config
          ~client_host ~server_host
          ~config:(if adversarial then adv_config else benign_config)
          ~rng
          ~on_done:(fun r ->
            let cb = Netsim.Tcp.bytes_sent r.Tls.Handshake.client_tcp in
            let sb = Netsim.Tcp.bytes_sent r.Tls.Handshake.server_tcp in
            if adversarial then begin
              incr adv_completed;
              adv_cb := !adv_cb + cb;
              adv_sb := !adv_sb + sb
            end
            else begin
              ben_cb := !ben_cb + cb;
              ben_sb := !ben_sb + sb
            end;
            Netsim.Tcp.close r.Tls.Handshake.client_tcp;
            Netsim.Tcp.close r.Tls.Handshake.server_tcp;
            finished ())
          ())
  in
  (* bounded drain: everything admitted normally completes well before
     this horizon; what is still in flight is reported as unfinished *)
  Netsim.Engine.run engine ~until:(window +. 60.);
  let span = Float.max (Netsim.Engine.now engine) 1e-9 in
  let server_cpu_ms =
    Array.fold_left
      (fun acc h -> acc +. Netsim.Host.total_cpu_ms h)
      0. server_hosts
  in
  let merged_ledger =
    let tbl = Hashtbl.create 8 in
    Array.iter
      (fun h ->
        List.iter
          (fun (lib, ms) ->
            Hashtbl.replace tbl lib
              (ms +. Option.value ~default:0. (Hashtbl.find_opt tbl lib)))
          (Netsim.Host.ledger h))
      server_hosts;
    Trace.Summary.shares (Trace.Summary.per_lib tbl)
  in
  if Netsim.Farm.completed farm = 0 then
    invalid_arg
      (Printf.sprintf "Experiment.run_farm_spec: no handshake completed for %s"
         (farm_spec_label sp));
  { fo_capacity_hs_s = capacity;
    fo_offered_rate = rate;
    fo_window_s = window;
    fo_offered = Netsim.Farm.offered farm;
    fo_completed = Netsim.Farm.completed farm;
    fo_dropped = Netsim.Farm.dropped farm;
    fo_unfinished = Netsim.Farm.unfinished farm;
    fo_latencies_ms = Netsim.Farm.latencies_ms farm;
    fo_wait_ms = Netsim.Farm.wait_ms farm;
    fo_server_cpu_ms = server_cpu_ms;
    fo_server_busy =
      server_cpu_ms /. 1000. /. (float_of_int sp.fa_servers *. span);
    fo_server_ledger = merged_ledger;
    fo_per_server_completed =
      Array.to_list (Netsim.Farm.per_server_completed farm);
    fo_adv_launched = !adv_launched;
    fo_adv_completed = !adv_completed;
    fo_adv_client_bytes = !adv_cb;
    fo_adv_server_bytes = !adv_sb;
    fo_benign_client_bytes = !ben_cb;
    fo_benign_server_bytes = !ben_sb;
    fo_cal_client_cpu_ms = cal_client;
    fo_cal_server_cpu_ms = cal_server;
    fo_cal_adv_server_cpu_ms = cal_adv_server }
