(* The observability layer: a domain-safe registry of counters, gauges
   and observation series for harness self-telemetry, plus per-cell
   distribution summaries recorded by [Exec] after every campaign grid.

   Two invariants keep the [--metrics] artifact useful as a regression
   gate:

   - determinism: a cell's summary is a pure function of its outcome,
     which is a pure function of its spec, so the serialized artifact is
     byte-identical for any [--jobs] and for cache hits vs fresh
     executions. Volatile telemetry (wall time, cache hits) lives only
     in the registry and the stderr health summary, never in the
     artifact.

   - schema stability: the artifact carries a version tag; [compare]
     refuses unknown versions instead of mis-reading them. *)

(* ---- distribution summaries --------------------------------------------- *)

type dist = {
  d_n : int;
  d_mean : float;
  d_stddev : float;
  d_p5 : float;
  d_p25 : float;
  d_p50 : float;
  d_p75 : float;
  d_p95 : float;
  d_p99 : float;
  d_ci_lo : float;
  d_ci_hi : float;
}

(* the bootstrap reseeds from the cell fingerprint and the metric name,
   so the interval is a pure function of the data — the artifact stays
   byte-identical whatever domain computed it *)
let dist ~seed xs =
  let ci_lo, ci_hi = Stats.bootstrap_ci ~seed 0.5 xs in
  match Stats.percentiles [ 0.05; 0.25; 0.5; 0.75; 0.95; 0.99 ] xs with
  | [ p5; p25; p50; p75; p95; p99 ] ->
    { d_n = List.length xs;
      d_mean = Stats.mean xs;
      d_stddev = Stats.stddev xs;
      d_p5 = p5;
      d_p25 = p25;
      d_p50 = p50;
      d_p75 = p75;
      d_p95 = p95;
      d_p99 = p99;
      d_ci_lo = ci_lo;
      d_ci_hi = ci_hi }
  | _ -> assert false

(* ---- per-cell data ------------------------------------------------------- *)

(* per-population split of a mixed-workload cell: the full-handshake and
   resumed-handshake sub-distributions behind Table 6. [None] dists mean
   the coin never produced that population within the sample budget. *)
type resumption = {
  rs_resumed_n : int;
  rs_full_n : int;
  rs_early_data_bytes : int;  (* 0-RTT bytes accepted, summed *)
  rs_resumed_total : dist option;  (* ms, CH -> client Finished *)
  rs_full_total : dist option;
  rs_resumed_server_bytes : dist option;
  rs_full_server_bytes : dist option;
}

type cell_data = {
  cd_handshakes_per_minute : int;
  cd_part_a : dist;
  cd_part_b : dist;
  cd_total : dist;
  cd_iteration : dist;
  cd_client_bytes : dist;
  cd_server_bytes : dist;
  cd_client_pkts : dist;
  cd_server_pkts : dist;
  cd_retransmissions : int;
  cd_fast_retx : int;
  cd_timeout_retx : int;
  cd_rtt_samples : int;
  cd_client_cpu_ms : float;
  cd_server_cpu_ms : float;
  cd_client_cpu_charges : int;
  cd_server_cpu_charges : int;
  cd_client_ledger : (string * float) list;
  cd_server_ledger : (string * float) list;
  cd_resumption : resumption option;  (* Some iff the mix is not full *)
  cd_chain_levels : (string * string * int * float) list;
      (* per-level placement breakdown; serialized iff the chain profile
         is not the default *)
}

type cell = {
  m_id : string;
  m_key : string;
  m_kem : string;
  m_sig : string;
  m_scenario : string;
  m_mix : string;
  m_chain : string;
  m_buffering : string;
  m_standard : bool;
  m_data : (cell_data, string) result;
}

let data_of_outcome ~id (o : Experiment.outcome) =
  let samples = o.Experiment.samples in
  let d name f =
    dist ~seed:(id ^ "/" ^ name) (List.map f samples)
  in
  let di name f = d name (fun s -> float_of_int (f s)) in
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 samples in
  let resumption =
    if o.Experiment.mix_name = "full" then None
    else begin
      let resumed, full =
        List.partition (fun s -> s.Experiment.resumed) samples
      in
      let sub name subset f =
        match subset with
        | [] -> None
        | _ -> Some (dist ~seed:(id ^ "/" ^ name) (List.map f subset))
      in
      Some
        { rs_resumed_n = List.length resumed;
          rs_full_n = List.length full;
          rs_early_data_bytes = sum (fun s -> s.Experiment.early_data_bytes);
          rs_resumed_total =
            sub "resumed_total" resumed (fun s -> s.Experiment.total_ms);
          rs_full_total =
            sub "full_total" full (fun s -> s.Experiment.total_ms);
          rs_resumed_server_bytes =
            sub "resumed_server_bytes" resumed (fun s ->
                float_of_int s.Experiment.server_bytes);
          rs_full_server_bytes =
            sub "full_server_bytes" full (fun s ->
                float_of_int s.Experiment.server_bytes) }
    end
  in
  { cd_handshakes_per_minute = o.Experiment.handshakes_per_minute;
    cd_part_a = d "part_a" (fun s -> s.Experiment.part_a_ms);
    cd_part_b = d "part_b" (fun s -> s.Experiment.part_b_ms);
    cd_total = d "total" (fun s -> s.Experiment.total_ms);
    cd_iteration = d "iteration" (fun s -> s.Experiment.iteration_ms);
    cd_client_bytes = di "client_bytes" (fun s -> s.Experiment.client_bytes);
    cd_server_bytes = di "server_bytes" (fun s -> s.Experiment.server_bytes);
    cd_client_pkts = di "client_pkts" (fun s -> s.Experiment.client_pkts);
    cd_server_pkts = di "server_pkts" (fun s -> s.Experiment.server_pkts);
    cd_retransmissions = sum (fun s -> s.Experiment.retransmissions);
    cd_fast_retx = sum (fun s -> s.Experiment.fast_retransmissions);
    cd_timeout_retx = sum (fun s -> s.Experiment.timeout_retransmissions);
    cd_rtt_samples = sum (fun s -> s.Experiment.rtt_samples);
    cd_client_cpu_ms = o.Experiment.client_cpu_ms;
    cd_server_cpu_ms = o.Experiment.server_cpu_ms;
    cd_client_cpu_charges = o.Experiment.client_cpu_charges;
    cd_server_cpu_charges = o.Experiment.server_cpu_charges;
    cd_client_ledger = o.Experiment.client_ledger;
    cd_server_ledger = o.Experiment.server_ledger;
    cd_resumption = resumption;
    cd_chain_levels = o.Experiment.chain_levels }

let buffering_name = function
  | Tls.Config.Optimized_push -> "push"
  | Tls.Config.Default_buffered -> "buffered"

(* a cell is "standard" when everything except kem/sig/scenario/
   buffering/seed sits at the [Experiment.spec] defaults — exactly the
   shape of the paper's Table 2 / Table 4 campaigns, and the only cells
   [against_paper] may judge. Fingerprints compare the specs without
   touching the closure-bearing algorithm values. *)
let is_standard (sp : Experiment.spec) =
  let rebuilt =
    Experiment.spec ~buffering:sp.Experiment.sp_buffering
      ~scenario:sp.Experiment.sp_scenario ~seed:sp.Experiment.sp_seed
      ~real_crypto:sp.Experiment.sp_real_crypto sp.Experiment.sp_kem
      sp.Experiment.sp_sig
  in
  String.equal
    (Experiment.spec_fingerprint rebuilt)
    (Experiment.spec_fingerprint sp)

(* ---- per-farm-cell data --------------------------------------------------- *)

type farm_cell_data = {
  fd_capacity_hs_s : float;
  fd_offered_rate : float;
  fd_window_s : float;
  fd_offered : int;
  fd_completed : int;
  fd_dropped : int;
  fd_unfinished : int;
  fd_latency : dist;
  fd_latency_p999 : float;
  fd_p99_ci_lo : float;
  fd_p99_ci_hi : float;
  fd_wait : dist;
  fd_server_cpu_ms : float;
  fd_server_busy : float;
  fd_server_ledger : (string * float) list;
  fd_per_server_completed : int list;
  fd_adv_launched : int;
  fd_adv_completed : int;
  fd_adv_client_bytes : int;
  fd_adv_server_bytes : int;
  fd_benign_client_bytes : int;
  fd_benign_server_bytes : int;
  fd_cal_client_cpu_ms : float;
  fd_cal_server_cpu_ms : float;
  fd_cal_adv_server_cpu_ms : float;
  fd_resumed_completed : int;
  fd_early_data_bytes : int;
}

type farm_cell = {
  f_id : string;
  f_key : string;
  f_kem : string;
  f_sig : string;
  f_scenario : string;
  f_profile : string;
  f_policy : string;
  f_utilization : float;
  f_adv_fraction : float;
  f_mix : string;
  f_data : (farm_cell_data, string) result;
}

let data_of_farm_outcome ~id (o : Experiment.farm_outcome) =
  let lat = o.Experiment.fo_latencies_ms in
  let p99_lo, p99_hi =
    Stats.bootstrap_ci ~seed:(id ^ "/p99") 0.99 lat
  in
  { fd_capacity_hs_s = o.Experiment.fo_capacity_hs_s;
    fd_offered_rate = o.Experiment.fo_offered_rate;
    fd_window_s = o.Experiment.fo_window_s;
    fd_offered = o.Experiment.fo_offered;
    fd_completed = o.Experiment.fo_completed;
    fd_dropped = o.Experiment.fo_dropped;
    fd_unfinished = o.Experiment.fo_unfinished;
    fd_latency = dist ~seed:(id ^ "/latency") lat;
    fd_latency_p999 = Stats.percentile 0.999 lat;
    fd_p99_ci_lo = p99_lo;
    fd_p99_ci_hi = p99_hi;
    fd_wait = dist ~seed:(id ^ "/wait") o.Experiment.fo_wait_ms;
    fd_server_cpu_ms = o.Experiment.fo_server_cpu_ms;
    fd_server_busy = o.Experiment.fo_server_busy;
    fd_server_ledger = o.Experiment.fo_server_ledger;
    fd_per_server_completed = o.Experiment.fo_per_server_completed;
    fd_adv_launched = o.Experiment.fo_adv_launched;
    fd_adv_completed = o.Experiment.fo_adv_completed;
    fd_adv_client_bytes = o.Experiment.fo_adv_client_bytes;
    fd_adv_server_bytes = o.Experiment.fo_adv_server_bytes;
    fd_benign_client_bytes = o.Experiment.fo_benign_client_bytes;
    fd_benign_server_bytes = o.Experiment.fo_benign_server_bytes;
    fd_cal_client_cpu_ms = o.Experiment.fo_cal_client_cpu_ms;
    fd_cal_server_cpu_ms = o.Experiment.fo_cal_server_cpu_ms;
    fd_cal_adv_server_cpu_ms = o.Experiment.fo_cal_adv_server_cpu_ms;
    fd_resumed_completed = o.Experiment.fo_resumed_completed;
    fd_early_data_bytes = o.Experiment.fo_early_data_bytes }

(* ---- the registry -------------------------------------------------------- *)

type t = {
  mu : Mutex.t;
  counters : (string, int) Hashtbl.t;
  gauges : (string, float) Hashtbl.t;
  series : (string, float list) Hashtbl.t; (* newest first *)
  seen : (string, unit) Hashtbl.t; (* cell fingerprints already recorded *)
  labels : (string, int) Hashtbl.t; (* spec_label -> occurrences *)
  mutable cells_rev : cell list;
  mutable farm_cells_rev : farm_cell list;
  mutable experiments_rev : string list;
}

let create () =
  { mu = Mutex.create ();
    counters = Hashtbl.create 16;
    gauges = Hashtbl.create 8;
    series = Hashtbl.create 8;
    seen = Hashtbl.create 64;
    labels = Hashtbl.create 64;
    cells_rev = [];
    farm_cells_rev = [];
    experiments_rev = [] }

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let incr ?(by = 1) t name =
  locked t (fun () ->
      Hashtbl.replace t.counters name
        (by + Option.value ~default:0 (Hashtbl.find_opt t.counters name)))

let counter t name =
  locked t (fun () ->
      Option.value ~default:0 (Hashtbl.find_opt t.counters name))

let set_gauge t name v =
  locked t (fun () -> Hashtbl.replace t.gauges name v)

let gauge t name = locked t (fun () -> Hashtbl.find_opt t.gauges name)

let observe t name v =
  locked t (fun () ->
      Hashtbl.replace t.series name
        (v :: Option.value ~default:[] (Hashtbl.find_opt t.series name)))

let observations t name =
  locked t (fun () ->
      List.rev (Option.value ~default:[] (Hashtbl.find_opt t.series name)))

let note_experiment t name =
  locked t (fun () ->
      if not (List.mem name t.experiments_rev) then
        t.experiments_rev <- name :: t.experiments_rev)

(* The recorder every cell kind shares, called by [Exec] once per grid
   in spec order from the coordinating domain — so recording order (and
   thus the artifact) is independent of [jobs]. Re-run cells (same
   fingerprint) keep their first recording; grids that share cells stay
   deduplicated. Fingerprints never collide across kinds and label
   formats differ, so one [seen] / [labels] pair serves every kind. *)
let record (kind : _ Cell.kind) summarize push t sp result =
  let id = kind.Cell.fingerprint sp in
  locked t (fun () ->
      if not (Hashtbl.mem t.seen id) then begin
        Hashtbl.add t.seen id ();
        let label = kind.Cell.label sp in
        let occurrences =
          1 + Option.value ~default:0 (Hashtbl.find_opt t.labels label)
        in
        Hashtbl.replace t.labels label occurrences;
        (* ablation grids reuse labels (same pair, different knob):
           disambiguate later occurrences deterministically *)
        let key =
          if occurrences = 1 then label
          else Printf.sprintf "%s#%d" label occurrences
        in
        push t (summarize ~id ~key sp result)
      end)

let cell_of ~id ~key (sp : Experiment.spec) result =
  { m_id = id;
    m_key = key;
    m_kem = sp.Experiment.sp_kem.Pqc.Kem.name;
    m_sig = sp.Experiment.sp_sig.Pqc.Sigalg.name;
    m_scenario = sp.Experiment.sp_scenario.Scenario.name;
    m_mix = sp.Experiment.sp_mix.Mix.name;
    m_chain = sp.Experiment.sp_chain.Tls.Chain_profile.name;
    m_buffering = buffering_name sp.Experiment.sp_buffering;
    m_standard = is_standard sp;
    m_data = Result.map (fun o -> data_of_outcome ~id o) result }

let farm_cell_of ~id ~key (sp : Experiment.farm_spec) result =
  { f_id = id;
    f_key = key;
    f_kem = sp.Experiment.fa_kem.Pqc.Kem.name;
    f_sig = sp.Experiment.fa_sig.Pqc.Sigalg.name;
    f_scenario = sp.Experiment.fa_scenario.Scenario.name;
    f_profile = sp.Experiment.fa_profile;
    f_policy = sp.Experiment.fa_policy;
    f_utilization = sp.Experiment.fa_utilization;
    f_adv_fraction = sp.Experiment.fa_adv_fraction;
    f_mix = sp.Experiment.fa_mix.Mix.name;
    f_data = Result.map (fun o -> data_of_farm_outcome ~id o) result }

let record_cell =
  record Cell.standard cell_of (fun t c -> t.cells_rev <- c :: t.cells_rev)

let record_farm_cell =
  record Cell.farm farm_cell_of (fun t c ->
      t.farm_cells_rev <- c :: t.farm_cells_rev)

let cell_count t =
  locked t (fun () ->
      List.length t.cells_rev + List.length t.farm_cells_rev)

(* ---- the artifact -------------------------------------------------------- *)

let schema_version = "pqtls-bench-metrics/1"

type artifact = {
  a_seed : string;
  a_experiments : string list;
  a_cells : cell list;
  a_farm_cells : farm_cell list;
}

let artifact t ~seed =
  locked t (fun () ->
      { a_seed = seed;
        a_experiments = List.rev t.experiments_rev;
        a_cells = List.rev t.cells_rev;
        a_farm_cells = List.rev t.farm_cells_rev })

let json_of_dist d =
  Json.Obj
    [ ("n", Json.Int d.d_n);
      ("mean", Json.Float d.d_mean);
      ("stddev", Json.Float d.d_stddev);
      ("p5", Json.Float d.d_p5);
      ("p25", Json.Float d.d_p25);
      ("p50", Json.Float d.d_p50);
      ("p75", Json.Float d.d_p75);
      ("p95", Json.Float d.d_p95);
      ("p99", Json.Float d.d_p99);
      ("ci95_lo", Json.Float d.d_ci_lo);
      ("ci95_hi", Json.Float d.d_ci_hi) ]

let json_of_ledger l =
  Json.Obj (List.map (fun (lib, share) -> (lib, Json.Float share)) l)

(* the resumption block (and the "mix" identity key) only exist for
   mixed-workload cells, so every pre-mix artifact stays byte-identical
   under schema /1 — the same stance farm_cells takes below *)
let json_of_resumption r =
  let opt_dist = function
    | None -> Json.Null
    | Some d -> json_of_dist d
  in
  Json.Obj
    [ ("resumed_n", Json.Int r.rs_resumed_n);
      ("full_n", Json.Int r.rs_full_n);
      ("early_data_bytes", Json.Int r.rs_early_data_bytes);
      ("resumed_total_ms", opt_dist r.rs_resumed_total);
      ("full_total_ms", opt_dist r.rs_full_total);
      ("resumed_server_bytes", opt_dist r.rs_resumed_server_bytes);
      ("full_server_bytes", opt_dist r.rs_full_server_bytes) ]

(* like the resumption block: the chain identity key and per-level
   breakdown only exist for non-default chain profiles, so every
   pre-chain artifact stays byte-identical under schema /1 *)
let json_of_chain_levels levels =
  let wire = List.fold_left (fun acc (_, _, b, _) -> acc + b) 0 levels in
  let cpu = List.fold_left (fun acc (_, _, _, ms) -> acc +. ms) 0. levels in
  Json.Obj
    [ ("wire_bytes", Json.Int wire);
      ("verify_ms", Json.Float cpu);
      ( "levels",
        Json.List
          (List.map
             (fun (name, issuer, bytes, verify_ms) ->
               Json.Obj
                 [ ("level", Json.String name);
                   ("issuer_sa", Json.String issuer);
                   ("bytes", Json.Int bytes);
                   ("verify_ms", Json.Float verify_ms) ])
             levels) ) ]

(* the frame every kind's cell shares: the common identity keys, the
   kind's own identity keys, then either the error or the data block *)
let json_of_frame ~id ~key ~kem ~sig_ ~scenario identity data result =
  let base =
    [ ("id", Json.String id);
      ("key", Json.String key);
      ("kem", Json.String kem);
      ("sig", Json.String sig_);
      ("scenario", Json.String scenario) ]
    @ identity
  in
  match result with
  | Error msg ->
    Json.Obj (base @ [ ("error", Json.String msg); ("data", Json.Null) ])
  | Ok d -> Json.Obj (base @ [ ("data", Json.Obj (data d)) ])

let json_of_cell c =
  json_of_frame ~id:c.m_id ~key:c.m_key ~kem:c.m_kem ~sig_:c.m_sig
    ~scenario:c.m_scenario
    ((if c.m_mix = "full" then [] else [ ("mix", Json.String c.m_mix) ])
    @ (if c.m_chain = "default" then []
       else [ ("chain", Json.String c.m_chain) ])
    @ [ ("buffering", Json.String c.m_buffering);
        ("standard", Json.Bool c.m_standard) ])
    (fun d ->
      [ ("handshakes_per_minute", Json.Int d.cd_handshakes_per_minute);
        ( "latency_ms",
          Json.Obj
            [ ("part_a", json_of_dist d.cd_part_a);
              ("part_b", json_of_dist d.cd_part_b);
              ("total", json_of_dist d.cd_total);
              ("iteration", json_of_dist d.cd_iteration) ] );
        ( "wire",
          Json.Obj
            [ ("client_bytes", json_of_dist d.cd_client_bytes);
              ("server_bytes", json_of_dist d.cd_server_bytes);
              ("client_pkts", json_of_dist d.cd_client_pkts);
              ("server_pkts", json_of_dist d.cd_server_pkts);
              ("retransmissions", Json.Int d.cd_retransmissions);
              ("fast_retx", Json.Int d.cd_fast_retx);
              ("timeout_retx", Json.Int d.cd_timeout_retx);
              ("rtt_samples", Json.Int d.cd_rtt_samples) ] );
        ( "cpu",
          Json.Obj
            [ ("client_ms", Json.Float d.cd_client_cpu_ms);
              ("server_ms", Json.Float d.cd_server_cpu_ms);
              ("client_charges", Json.Int d.cd_client_cpu_charges);
              ("server_charges", Json.Int d.cd_server_cpu_charges);
              ("client_ledger", json_of_ledger d.cd_client_ledger);
              ("server_ledger", json_of_ledger d.cd_server_ledger) ]
        ) ]
      @ (match d.cd_resumption with
        | None -> []
        | Some r -> [ ("resumption", json_of_resumption r) ])
      @
      if c.m_chain = "default" then []
      else [ ("chain", json_of_chain_levels d.cd_chain_levels) ])
    c.m_data

let json_of_farm_cell c =
  json_of_frame ~id:c.f_id ~key:c.f_key ~kem:c.f_kem ~sig_:c.f_sig
    ~scenario:c.f_scenario
    ([ ("profile", Json.String c.f_profile);
       ("policy", Json.String c.f_policy);
       ("utilization", Json.Float c.f_utilization);
       ("adv_fraction", Json.Float c.f_adv_fraction) ]
    @ if c.f_mix = "full" then [] else [ ("mix", Json.String c.f_mix) ])
    (fun d ->
      [ ( "load",
          Json.Obj
            [ ("capacity_hs_s", Json.Float d.fd_capacity_hs_s);
              ("offered_rate_hs_s", Json.Float d.fd_offered_rate);
              ("window_s", Json.Float d.fd_window_s);
              ("offered", Json.Int d.fd_offered);
              ("completed", Json.Int d.fd_completed);
              ("dropped", Json.Int d.fd_dropped);
              ("unfinished", Json.Int d.fd_unfinished) ] );
        ( "latency_ms",
          Json.Obj
            [ ("handshake", json_of_dist d.fd_latency);
              ("p999", Json.Float d.fd_latency_p999);
              ("p99_ci95_lo", Json.Float d.fd_p99_ci_lo);
              ("p99_ci95_hi", Json.Float d.fd_p99_ci_hi);
              ("accept_wait", json_of_dist d.fd_wait) ] );
        ( "servers",
          Json.Obj
            [ ("cpu_ms", Json.Float d.fd_server_cpu_ms);
              ("busy", Json.Float d.fd_server_busy);
              ("ledger", json_of_ledger d.fd_server_ledger);
              ( "completed",
                Json.List
                  (List.map
                     (fun n -> Json.Int n)
                     d.fd_per_server_completed) ) ] );
        ( "adversarial",
          Json.Obj
            [ ("launched", Json.Int d.fd_adv_launched);
              ("completed", Json.Int d.fd_adv_completed);
              ("adv_client_bytes", Json.Int d.fd_adv_client_bytes);
              ("adv_server_bytes", Json.Int d.fd_adv_server_bytes);
              ("benign_client_bytes", Json.Int d.fd_benign_client_bytes);
              ("benign_server_bytes", Json.Int d.fd_benign_server_bytes)
            ] );
        ( "calibration",
          Json.Obj
            [ ("client_cpu_ms", Json.Float d.fd_cal_client_cpu_ms);
              ("server_cpu_ms", Json.Float d.fd_cal_server_cpu_ms);
              ( "adv_server_cpu_ms",
                Json.Float d.fd_cal_adv_server_cpu_ms ) ] ) ]
      @
      if c.f_mix = "full" then []
      else
        [ ( "resumption",
            Json.Obj
              [ ("completed", Json.Int d.fd_resumed_completed);
                ("early_data_bytes", Json.Int d.fd_early_data_bytes)
              ] ) ])
    c.f_data

let to_json_string a =
  Json.to_string
    (Json.Obj
       ([ ("schema", Json.String schema_version);
          ("seed", Json.String a.a_seed);
          ( "experiments",
            Json.List (List.map (fun e -> Json.String e) a.a_experiments) );
          ("cells", Json.List (List.map json_of_cell a.a_cells)) ]
       (* only farm campaigns carry the key: artifacts of the existing
          campaigns stay byte-identical under schema /1 *)
       @
       match a.a_farm_cells with
       | [] -> []
       | fcs ->
         [ ("farm_cells", Json.List (List.map json_of_farm_cell fcs)) ]))

(* ---- the parsed (comparison) side ---------------------------------------- *)

type p_cell = {
  p_id : string;
  p_key : string;
  p_kem : string;
  p_sig : string;
  p_scenario : string;
  p_buffering : string;
  p_standard : bool;
  p_error : string option;
  p_metrics : (string * float) list; (* flattened numeric leaves, in order *)
}

type p_artifact = {
  p_seed : string;
  p_experiments : string list;
  p_cells : p_cell list;
  p_farm_cells : p_cell list;
}

let rec flatten prefix j acc =
  let join k = if prefix = "" then k else prefix ^ "." ^ k in
  match j with
  | Json.Obj fields ->
    List.fold_left (fun acc (k, v) -> flatten (join k) v acc) acc fields
  | Json.List items ->
    List.fold_left
      (fun (acc, i) v -> (flatten (join (string_of_int i)) v acc, i + 1))
      (acc, 0) items
    |> fst
  | Json.Int n -> (prefix, float_of_int n) :: acc
  | Json.Float f -> (prefix, f) :: acc
  | Json.Null -> (prefix, nan) :: acc
  | Json.Bool _ | Json.String _ -> acc

let ( let* ) = Result.bind

let req what o =
  match o with
  | Some v -> Ok v
  | None -> Error ("metrics artifact: missing or ill-typed " ^ what)

(* both kinds parse into [p_cell]; a farm cell carries its own identity
   keys instead of buffering/standard and is never standard, so
   [against_paper] cannot judge it *)
let parse_cell ~farm j =
  let what = if farm then "farm cell " else "cell " in
  let str k = req (what ^ k) (Json.to_str (Json.member k j)) in
  let* id = str "id" in
  let* key = str "key" in
  let* kem = str "kem" in
  let* sig_ = str "sig" in
  let* scenario = str "scenario" in
  let* buffering, standard =
    if farm then
      let* _ = str "profile" in
      let* _ = str "policy" in
      Ok ("", false)
    else
      let* buffering = str "buffering" in
      let* standard =
        req (what ^ "standard") (Json.to_bool (Json.member "standard" j))
      in
      Ok (buffering, standard)
  in
  let metrics =
    match Json.member "data" j with
    | Some (Json.Obj _ as data) -> List.rev (flatten "data" data [])
    | _ -> []
  in
  Ok
    { p_id = id;
      p_key = key;
      p_kem = kem;
      p_sig = sig_;
      p_scenario = scenario;
      p_buffering = buffering;
      p_standard = standard;
      p_error = Json.to_str (Json.member "error" j);
      p_metrics = metrics }

let rec collect_cells ~farm = function
  | [] -> Ok []
  | j :: rest ->
    let* c = parse_cell ~farm j in
    let* cs = collect_cells ~farm rest in
    Ok (c :: cs)

let of_json_string s =
  let* j = Json.parse s in
  let* schema = req "schema" (Json.to_str (Json.member "schema" j)) in
  if schema <> schema_version then
    Error
      (Printf.sprintf "unsupported metrics schema %S (this build reads %S)"
         schema schema_version)
  else
    let* seed = req "seed" (Json.to_str (Json.member "seed" j)) in
    let* experiments = req "experiments" (Json.to_list (Json.member "experiments" j)) in
    let* experiments =
      List.fold_left
        (fun acc e ->
          let* acc = acc in
          let* name = req "experiment name" (Json.to_str (Some e)) in
          Ok (name :: acc))
        (Ok []) experiments
      |> Result.map List.rev
    in
    let* cells = req "cells" (Json.to_list (Json.member "cells" j)) in
    let* cells = collect_cells ~farm:false cells in
    (* absent for every pre-farm artifact; never required *)
    let* farm_cells =
      match Json.member "farm_cells" j with
      | None -> Ok []
      | Some fj ->
        let* items = req "farm_cells" (Json.to_list (Some fj)) in
        collect_cells ~farm:true items
    in
    Ok
      { p_seed = seed;
        p_experiments = experiments;
        p_cells = cells;
        p_farm_cells = farm_cells }

(* ---- the keyed leaf comparison ------------------------------------------- *)

type row = {
  row_id : string;
  row_key : string;
  row_error : string option;
  row_leaves : (string * float) list;
}

let rel_delta a b =
  if (Float.is_nan a && Float.is_nan b) || a = b then 0.
  else
    Float.abs (a -. b)
    /. Float.max (Float.max (Float.abs a) (Float.abs b)) 1e-9

let diff_rows ?judged ~rel_tol base cand =
  let issues = ref [] in
  let issue fmt = Printf.ksprintf (fun s -> issues := s :: !issues) fmt in
  let leaves r =
    match judged with
    | None -> r.row_leaves
    | Some keys -> List.filter (fun (k, _) -> List.mem k keys) r.row_leaves
  in
  let index rows =
    let h = Hashtbl.create (List.length rows) in
    List.iter (fun r -> Hashtbl.replace h r.row_id r) rows;
    h
  in
  let cand_rows = index cand and base_rows = index base in
  List.iter
    (fun b ->
      match Hashtbl.find_opt cand_rows b.row_id with
      | None -> issue "%s: missing from candidate" b.row_key
      | Some c -> (
        match (b.row_error, c.row_error) with
        | Some _, Some _ -> () (* both failed; messages may differ *)
        | Some _, None -> issue "%s: failed in baseline, ok in candidate" b.row_key
        | None, Some _ -> issue "%s: ok in baseline, failed in candidate" b.row_key
        | None, None ->
          let b_leaves = leaves b and c_leaves = leaves c in
          let cm = Hashtbl.create (List.length c_leaves) in
          List.iter (fun (k, v) -> Hashtbl.replace cm k v) c_leaves;
          List.iter
            (fun (k, bv) ->
              match Hashtbl.find_opt cm k with
              | None -> issue "%s: metric %s missing from candidate" b.row_key k
              | Some cv ->
                let rel = rel_delta bv cv in
                if not (rel <= rel_tol) then
                  issue "%s: %s %s vs %s (%.2f%% apart, tol %.2f%%)" b.row_key
                    k (Json.float_repr bv) (Json.float_repr cv) (100. *. rel)
                    (100. *. rel_tol))
            b_leaves;
          List.iter
            (fun (k, _) ->
              if not (List.mem_assoc k b_leaves) then
                issue "%s: metric %s missing from baseline" b.row_key k)
            c_leaves))
    base;
  List.iter
    (fun c ->
      if not (Hashtbl.mem base_rows c.row_id) then
        issue "%s: missing from baseline" c.row_key)
    cand;
  List.rev !issues

let diff ?(rel_tol = 0.) base cand =
  let rows a =
    List.map
      (fun c ->
        { row_id = c.p_id;
          row_key = c.p_key;
          row_error = c.p_error;
          row_leaves = c.p_metrics })
      (a.p_cells @ a.p_farm_cells)
  in
  (if base.p_seed = cand.p_seed then []
   else [ Printf.sprintf "seed mismatch: %S vs %S" base.p_seed cand.p_seed ])
  @ diff_rows ~rel_tol (rows base) (rows cand)

(* ---- the paper-drift gate ------------------------------------------------ *)

(* the same relative-error form as the calibration tests in
   test/test_core.ml: small paper values are floored at 0.05 ms so a
   0.01 ms absolute slip on a 0.2 ms cell doesn't read as 5 % drift *)
let paper_rel ~paper sim = Float.abs (sim -. paper) /. Float.max paper 0.05

(* tolerances track test_core.ml's calibration assertions for Table 2;
   Table 4 medians under loss/jitter scenarios carry more spread (the
   paper's own numbers include outliers like p256 @ lte-m), so the gate
   is looser there *)
let tol_t2_latency = 0.30
let tol_t2a_bytes = 0.10
let tol_t2b_server_bytes = 0.25

(* handshakes/min goes as the reciprocal of the iteration time, so a
   latency within the 30 % band can move the count by up to
   0.30 / (1 - 0.30) = 43 % — the count band must be at least that *)
let tol_t2_count = 0.45
let tol_t4 = 0.45

(* only the deterministic impairments are gated: the bandwidth and
   delay medians are pinned by serialization time and the RTT, and the
   simulator tracks the paper well inside the band. The random-loss
   columns (loss, lte-m, 5g) reproduce the paper's *qualitative*
   findings (see test_core.ml) but not its medians — large-flight rows
   like SPHINCS+ under 10 % loss land 5-10x away in either direction,
   as do several of the paper's own internally inconsistent loss cells
   — so gating them would mean tolerances too wide to catch drift *)
let t4_col (r : Paper_data.t4_row) = function
  | "bandwidth" -> Some r.Paper_data.bandwidth
  | "delay" -> Some r.Paper_data.delay
  | _ -> None

let against_paper a =
  let checked = ref 0 in
  let issues = ref [] in
  let check c ~tol ~what ~paper sim =
    if not (Float.is_nan paper) then begin
      Stdlib.incr checked;
      let rel = paper_rel ~paper sim in
      if not (rel <= tol) then
        issues :=
          Printf.sprintf "%s: %s sim %.4g vs paper %.4g (%.0f%% off, tol %.0f%%)"
            c.p_key what sim paper (100. *. rel) (100. *. tol)
          :: !issues
    end
  in
  let get c name = Option.value ~default:nan (List.assoc_opt name c.p_metrics) in
  List.iter
    (fun c ->
      if c.p_standard && c.p_buffering = "push" && c.p_error = None then begin
        (match
           if c.p_sig = "rsa:2048" && c.p_scenario = "none" then
             Paper_data.find2a c.p_kem
           else None
         with
        | Some r ->
          check c ~tol:tol_t2_latency ~what:"part A p50 (Table 2a)"
            ~paper:r.Paper_data.part_a
            (get c "data.latency_ms.part_a.p50");
          check c ~tol:tol_t2_latency ~what:"part B p50 (Table 2a)"
            ~paper:r.Paper_data.part_b
            (get c "data.latency_ms.part_b.p50");
          check c ~tol:tol_t2_count ~what:"handshakes/min (Table 2a)"
            ~paper:(r.Paper_data.total_k *. 1000.)
            (get c "data.handshakes_per_minute");
          check c ~tol:tol_t2a_bytes ~what:"client bytes p50 (Table 2a)"
            ~paper:(float_of_int r.Paper_data.client_b)
            (get c "data.wire.client_bytes.p50");
          check c ~tol:tol_t2a_bytes ~what:"server bytes p50 (Table 2a)"
            ~paper:(float_of_int r.Paper_data.server_b)
            (get c "data.wire.server_bytes.p50")
        | None -> ());
        (match
           if c.p_kem = "x25519" && c.p_scenario = "none" then
             Paper_data.find2b c.p_sig
           else None
         with
        | Some r ->
          check c ~tol:tol_t2_latency ~what:"part B p50 (Table 2b)"
            ~paper:r.Paper_data.part_b
            (get c "data.latency_ms.part_b.p50");
          check c ~tol:tol_t2b_server_bytes ~what:"server bytes p50 (Table 2b)"
            ~paper:(float_of_int r.Paper_data.server_b)
            (get c "data.wire.server_bytes.p50")
        | None -> ());
        (match
           if c.p_scenario = "none" then None
           else if c.p_sig = "rsa:2048" then
             Option.bind (Paper_data.find4a c.p_kem) (fun r ->
                 Option.map (fun v -> ("Table 4a", v)) (t4_col r c.p_scenario))
           else if c.p_kem = "x25519" then
             Option.bind (Paper_data.find4b c.p_sig) (fun r ->
                 Option.map (fun v -> ("Table 4b", v)) (t4_col r c.p_scenario))
           else None
         with
        | Some (table, paper) ->
          check c ~tol:tol_t4
            ~what:(Printf.sprintf "total p50 (%s, %s)" table c.p_scenario)
            ~paper
            (get c "data.latency_ms.total.p50")
        | None -> ())
      end)
    a.p_cells;
  (!checked, List.rev !issues)
