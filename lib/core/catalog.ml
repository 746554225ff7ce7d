(* The experiment catalog and the reports it renders. Each entry runs
   its whole cell grid through one [Exec.t] and returns the finished
   report; every table row has one format, in which a failed cell's
   value columns print as dashes of the same width. *)

let buf_table = Tablefmt.buf_table
let fmt_paper = Tablefmt.fmt_paper
let or_dash = Tablefmt.or_dash
let failed_suffix = Tablefmt.failed_suffix

let part_a o = Experiment.median_of (fun s -> s.Experiment.part_a_ms) o
let part_b o = Experiment.median_of (fun s -> s.Experiment.part_b_ms) o
let total o = Experiment.median_of (fun s -> s.Experiment.total_ms) o
let cbytes o = Experiment.median_bytes (fun s -> s.Experiment.client_bytes) o
let sbytes o = Experiment.median_bytes (fun s -> s.Experiment.server_bytes) o

(* a row of cells as their median total latencies, [w] columns each *)
let totals w fmt results =
  String.concat " "
    (List.map (fun r -> or_dash w fmt total (Result.to_option r)) results)

(* ---- the KA and SA sweeps (Tables 2 and 4, Figure 4) ------------------- *)

type sweep = {
  algs : (string * Pqc.Kem.t * Pqc.Sigalg.t) list;
      (* the swept algorithm's name and the pair it runs in *)
  paper2 : string -> Paper_data.t2_row option;
  paper4 : string -> Paper_data.t4_row option;
}

let ka_sweep =
  { algs =
      List.map
        (fun (k : Pqc.Kem.t) -> (k.name, k, Pqc.Registry.baseline_sig))
        Pqc.Registry.kems;
    paper2 = Paper_data.find2a;
    paper4 = Paper_data.find4a }

let sa_sweep =
  { algs =
      List.map
        (fun (s : Pqc.Sigalg.t) -> (s.name, Pqc.Registry.baseline_kem, s))
        Pqc.Registry.sigs;
    paper2 = Paper_data.find2b;
    paper4 = Paper_data.find4b }

let sweep_specs ~seed sw =
  List.map (fun (_, k, s) -> Experiment.spec ~seed k s) sw.algs

(* ---- Table 2 ----------------------------------------------------------- *)

let header2 =
  Printf.sprintf "%-20s %14s | %14s | %14s | %15s | %15s" "algorithm"
    "partA sim/pap" "partB sim/pap" "#60s sim/pap" "client B sim/pap"
    "server B sim/pap"

let table2 title sw ~seed exec =
  let row (name, _, _) r =
    let o = Result.to_option r in
    let pa, pb, tk, cb, sb =
      match sw.paper2 name with
      | Some (p : Paper_data.t2_row) ->
        (p.part_a, p.part_b, p.total_k, p.client_b, p.server_b)
      | None -> (nan, nan, nan, 0, 0)
    in
    Printf.sprintf "%-20s %s %s | %s %s | %s %5.1fk | %s %7d | %s %7d" name
      (or_dash 6 "%6.2f" part_a o) (fmt_paper pa)
      (or_dash 6 "%6.2f" part_b o) (fmt_paper pb)
      (or_dash 7 "%6.1fk"
         (fun o -> float_of_int o.Experiment.handshakes_per_minute /. 1000.)
         o)
      tk (or_dash 7 "%7d" cbytes o) cb (or_dash 7 "%7d" sbytes o) sb
  in
  buf_table title header2
    (List.map2 row sw.algs (Exec.cells exec (sweep_specs ~seed sw)))

(* ---- Table 3 ----------------------------------------------------------- *)

let fmt_libs libs =
  libs
  |> List.filter (fun (_, f) -> f >= 0.005)
  |> List.map (fun (lib, f) -> Printf.sprintf "%s %.0f%%" lib (100. *. f))
  |> String.concat " "

let table3 ~seed exec =
  let row (level, kem, sa) r =
    Printf.sprintf "%d %-14s %-15s %s | %s %s | %s %s | %s" level kem sa
      (or_dash 5 "%5.0f" (fun r -> r.Whitebox.handshakes_per_s) r)
      (or_dash 5 "%5.2f" (fun r -> r.Whitebox.server_cpu_ms) r)
      (or_dash 5 "%5.2f" (fun r -> r.Whitebox.client_cpu_ms) r)
      (or_dash 3 "%3d" (fun r -> r.Whitebox.server_pkts) r)
      (or_dash 3 "%3d" (fun r -> r.Whitebox.client_pkts) r)
      (match r with
      | Some r ->
        Printf.sprintf "S: %s | C: %s"
          (fmt_libs r.Whitebox.server_libs)
          (fmt_libs r.Whitebox.client_libs)
      | None -> "(cell failed)")
  in
  buf_table "Table 3: white-box measurements"
    (Printf.sprintf "L %-14s %-15s %5s | %11s | %7s | %s" "KA" "SA" "HS/s"
       "CPU srv/cli" "pkt s/c" "library distribution")
    (List.map2 row Whitebox.paper_pairs (Whitebox.table ~seed ~exec ()))

let perf_report level ~seed exec =
  let pairs = List.filter (fun (l, _, _) -> l = level) Whitebox.paper_pairs in
  let b = Buffer.create 1024 in
  Printf.bprintf b "Level-%d white-box profiling\n" level;
  List.iter2
    (fun (_, kem, sa) r ->
      Printf.bprintf b "  %-15s %-15s %s hs/s %s\n" kem sa
        (or_dash 4 "%4.0f" (fun r -> r.Whitebox.handshakes_per_s) r)
        (match r with
        | Some r ->
          Printf.sprintf "cpu %5.2f/%5.2f ms" r.Whitebox.server_cpu_ms
            r.Whitebox.client_cpu_ms
        | None -> "(cell failed)"))
    pairs
    (Whitebox.rows ~seed ~exec pairs);
  Buffer.contents b

(* ---- Table 4 ----------------------------------------------------------- *)

let header4 =
  Printf.sprintf "%-20s %s" "algorithm"
    (String.concat " | "
       (List.map
          (fun sc -> Printf.sprintf "%15s" sc.Scenario.label)
          Scenario.all))

let table4 title sw ~seed exec =
  let results =
    Tablefmt.chunks (Exec.cells exec)
      (List.map
         (fun (_, k, s) ->
           List.map
             (fun scenario -> Experiment.spec ~seed ~scenario k s)
             Scenario.all)
         sw.algs)
  in
  let row (name, _, _) results =
    let paper =
      match sw.paper4 name with
      | Some (r : Paper_data.t4_row) ->
        [ r.none; r.loss; r.bandwidth; r.delay; r.lte_m; r.five_g ]
      | None -> List.map (fun _ -> nan) Scenario.all
    in
    Printf.sprintf "%-20s %s" name
      (String.concat " | "
         (List.map2
            (fun r pap ->
              Printf.sprintf "%s %s"
                (or_dash 8 "%8.2f" total (Result.to_option r))
                (fmt_paper pap))
            results paper))
  in
  buf_table title header4 (List.map2 row sw.algs results)

(* ---- Figure 3 ---------------------------------------------------------- *)

(* a grid's completed combinations, then the failed ones *)
let deviation_rows (g : Deviation.grid) =
  List.map (fun (c : Deviation.cell) -> (c.kem, c.sa, Some c)) g.cells
  @ List.map (fun (k, s) -> (k, s, None)) g.failed

let level_report ~buffering level ~seed exec =
  let g = Deviation.analyze ~seed ~exec ~buffering level in
  let b = Buffer.create 2048 in
  Printf.bprintf b "Level-%d combinations (%s buffering)\n" level
    (match buffering with
    | Tls.Config.Optimized_push -> "optimized"
    | Tls.Config.Default_buffered -> "default");
  List.iter
    (fun (k, s, c) ->
      Printf.bprintf b "  %-15s %-15s measured %s %s\n" k s
        (or_dash 8 "%8.2f" (fun c -> c.Deviation.measured_ms) c)
        (match c with
        | Some c ->
          Printf.sprintf "expected %8.2f dev %+6.2f" c.Deviation.expected_ms
            c.Deviation.deviation_ms
        | None -> "(cell failed)"))
    (deviation_rows g);
  Buffer.contents b

let figure3 ~seed exec =
  let b = Buffer.create 8192 in
  let levels = [ 1; 3; 5 ] in
  let grids_opt = List.map (Deviation.analyze ~seed ~exec) levels in
  let grids_def =
    List.map
      (Deviation.analyze ~buffering:Tls.Config.Default_buffered ~seed ~exec)
      levels
  in
  let dump title grids =
    Buffer.add_string b (title ^ "\n");
    Buffer.add_string b
      "  level KA              SA              measured expected deviation\n";
    List.iter
      (fun (g : Deviation.grid) ->
        List.iter
          (fun (k, s, c) ->
            Printf.bprintf b "  %d     %-15s %-15s %s %s %s%s\n" g.level k s
              (or_dash 8 "%8.2f" (fun c -> c.Deviation.measured_ms) c)
              (or_dash 8 "%8.2f" (fun c -> c.Deviation.expected_ms) c)
              (or_dash 9 "%+9.2f" (fun c -> c.Deviation.deviation_ms) c)
              (failed_suffix c))
          (deviation_rows g))
      grids;
    let all_devs =
      List.concat_map
        (fun (g : Deviation.grid) ->
          List.map (fun c -> c.Deviation.deviation_ms) g.Deviation.cells)
        grids
    in
    if all_devs = [] then
      Buffer.add_string b "  (no cells completed)\n\n"
    else begin
      let lo, hi = Stats.min_max all_devs in
      Buffer.add_string b
        (Printf.sprintf
           "  deviation median %+0.2f ms, range [%+0.2f, %+0.2f]\n\n"
           (Stats.median all_devs) lo hi)
    end
  in
  dump "Figure 3a: deviation from additive prediction (default OpenSSL)"
    grids_def;
  dump "Figure 3b: deviation from additive prediction (optimized push)"
    grids_opt;
  Buffer.add_string b "Figure 3c: improvement of optimized over default (ms)\n";
  List.iter2
    (fun o d ->
      List.iter
        (fun (k, s, gain) ->
          Buffer.add_string b
            (Printf.sprintf "  %d     %-15s %-15s %+8.2f\n" o.Deviation.level k
               s gain))
        (Deviation.improvement ~optimized:o ~default:d))
    grids_opt grids_def;
  Buffer.contents b

(* ---- Figure 4 ---------------------------------------------------------- *)

let figure4 ~seed exec =
  let sweeps =
    [ ("Figure 4 (top): key agreements ranked by log-scaled latency", ka_sweep);
      ( "Figure 4 (bottom): signature algorithms ranked by log-scaled latency",
        sa_sweep ) ]
  in
  let b = Buffer.create 2048 in
  List.iter2
    (fun (title, sw) results ->
      (* failed cells drop out of the ranking and are listed below it *)
      let ranked, failed =
        List.partition_map
          (fun ((name, _, _), r) ->
            match r with
            | Ok o -> Either.Left (name, o)
            | Error _ -> Either.Right (name, None))
          (List.combine sw.algs results)
      in
      Buffer.add_string b (title ^ "\n");
      List.iter
        (fun (name, e) ->
          Printf.bprintf b "  [%s] %-20s %s ms%s\n"
            (or_dash 2 "%2d" (fun e -> e.Ranking.rank) e)
            name
            (or_dash 8 "%8.2f" (fun e -> e.Ranking.latency_ms) e)
            (failed_suffix e))
        (List.map
           (fun (e : Ranking.entry) -> (e.name, Some e))
           (Ranking.of_outcomes ranked)
        @ failed);
      Buffer.add_char b '\n')
    sweeps
    (Tablefmt.chunks (Exec.cells exec)
       (List.map (fun (_, sw) -> sweep_specs ~seed sw) sweeps));
  Buffer.contents b

(* ---- Section 5.5 ------------------------------------------------------- *)

let attack ~seed exec =
  let rows = Amplification.survey ~seed ~exec () in
  let body =
    List.map
      (fun (r : Amplification.row) ->
        Printf.sprintf "%-16s %-18s %9.2fx %12.2fx%s" r.Amplification.kem
          r.Amplification.sa r.Amplification.cpu_ratio
          r.Amplification.amplification
          (if r.Amplification.amplification > Amplification.quic_limit then
             "  (exceeds QUIC's 3x)"
           else ""))
      rows
  in
  let table =
    buf_table "Section 5.5: attack-surface asymmetries"
      (Printf.sprintf "%-16s %-18s %10s %13s" "KA" "SA" "CPU s/c"
         "amplification")
      body
  in
  match rows with
  | [] -> table ^ "(no cells completed)\n"
  | _ ->
    let worst_a = Amplification.worst_amplification rows in
    let worst_c = Amplification.worst_cpu_ratio rows in
    table
    ^ Printf.sprintf
        "worst amplification: %s x %s at %.1fx (QUIC limit: %.0fx)\n\
         worst CPU skew: %s x %s at %.1fx\n"
        worst_a.Amplification.kem worst_a.Amplification.sa
        worst_a.Amplification.amplification Amplification.quic_limit
        worst_c.Amplification.kem worst_c.Amplification.sa
        worst_c.Amplification.cpu_ratio

(* ---- Table 5 ----------------------------------------------------------- *)

(* the capacity campaign covers the paper's reference pair plus one
   lattice pair per level and the hash-based outlier — the pairs whose
   single-handshake profiles differ most, so farm behaviour separates *)
let table5_pairs =
  [ ("x25519", "rsa:2048"); ("kyber512", "dilithium2");
    ("kyber768", "dilithium3"); ("kyber512", "sphincs128") ]

(* section 5.5 at farm scale: a fraction of arrivals are adversarial
   clients negotiating the cheapest KEM (x25519 — a few hundred client
   bytes buying the full SA-dominated server flight and its CPU) *)
let table5_attack_pair = ("kyber512", "sphincs128")

let farm_p50_p99_p999 (o : Experiment.farm_outcome) =
  match
    Stats.percentiles [ 0.5; 0.99; 0.999 ] o.Experiment.fo_latencies_ms
  with
  | [ p50; p99; p999 ] -> (p50, p99, p999)
  | _ -> assert false

let capacity_row (sp : Experiment.farm_spec) r =
  let o = Result.to_option r in
  let tails = Option.map farm_p50_p99_p999 o in
  Printf.sprintf "%-15s %-12s %-12s %s %s %s %s %s %s %s %s%s"
    sp.fa_kem.Pqc.Kem.name sp.fa_sig.Pqc.Sigalg.name sp.fa_profile
    (or_dash 8 "%8.0f" (fun o -> o.Experiment.fo_capacity_hs_s) o)
    (or_dash 6 "%6d" (fun o -> o.Experiment.fo_offered) o)
    (or_dash 6 "%6d" (fun o -> o.Experiment.fo_completed) o)
    (or_dash 5 "%5d" (fun o -> o.Experiment.fo_dropped) o)
    (or_dash 4 "%4d" (fun o -> o.Experiment.fo_unfinished) o)
    (or_dash 8 "%8.2f" (fun (p50, _, _) -> p50) tails)
    (or_dash 8 "%8.2f" (fun (_, p99, _) -> p99) tails)
    (or_dash 8 "%8.2f" (fun (_, _, p999) -> p999) tails)
    (failed_suffix o)

let attack_row (sp : Experiment.farm_spec) r =
  let o = Result.to_option r in
  let amplification (o : Experiment.farm_outcome) =
    if o.fo_adv_client_bytes = 0 then 0.
    else
      float_of_int o.fo_adv_server_bytes /. float_of_int o.fo_adv_client_bytes
  in
  let cpu_share (o : Experiment.farm_outcome) =
    if o.fo_server_cpu_ms = 0. then 0.
    else
      float_of_int o.fo_adv_completed *. o.fo_cal_adv_server_cpu_ms
      /. o.fo_server_cpu_ms
  in
  Printf.sprintf "%4.0f%% %7.0f%% %s %s %s %s %s %s%s"
    (100. *. sp.fa_utilization) (100. *. sp.fa_adv_fraction)
    (or_dash 6 "%6d" (fun o -> o.Experiment.fo_offered) o)
    (or_dash 6 "%6d" (fun o -> o.Experiment.fo_completed) o)
    (or_dash 5 "%5d" (fun o -> o.Experiment.fo_dropped) o)
    (or_dash 8 "%8.2f" (fun o -> let _, p99, _ = farm_p50_p99_p999 o in p99) o)
    (or_dash 10 "%9.2fx" amplification o)
    (or_dash 10 "%9.0f%%" (fun o -> 100. *. cpu_share o) o)
    (failed_suffix o)

let table5 ~pairs ~profiles ~utilizations ~servers ~duration_s
    ~capacity_connections ~attack_connections ~seed exec =
  let farm ?profile ?utilization ?adv_fraction ~max_connections (k, s) =
    Experiment.farm_spec ~seed ?profile ?utilization ?adv_fraction ~servers
      ~duration_s ~max_connections (Pqc.Registry.find_kem k)
      (Pqc.Registry.find_sig s)
  in
  let capacity =
    List.concat_map
      (fun pair ->
        List.map
          (fun profile ->
            farm ~profile ~max_connections:capacity_connections pair)
          profiles)
      pairs
  in
  let attack =
    List.concat_map
      (fun utilization ->
        List.map
          (fun adv_fraction ->
            farm ~utilization ~adv_fraction ~max_connections:attack_connections
              table5_attack_pair)
          [ 0.; 0.3 ])
      utilizations
  in
  (* The attack cells are declared first although their table prints
     second. The metrics artifact records cells in grid order, and the
     farm artifacts and bench/perf's goldens list the attack cells ahead
     of the capacity cells: the two tables used to come from two grids
     joined as [capacity ^ "\n" ^ attack], whose operands OCaml
     evaluates right to left. *)
  match Tablefmt.chunks (Exec.farm_cells exec) [ attack; capacity ] with
  | [ attack_results; capacity_results ] ->
    let ak, asa = table5_attack_pair in
    buf_table
      (Printf.sprintf
         "Table 5: sustainable handshake capacity and tail latency (%d \
          single-core servers, 90%% utilization)"
         servers)
      (Printf.sprintf "%-15s %-12s %-12s %8s %6s %6s %5s %4s %8s %8s %8s"
         "KA" "SA" "profile" "cap/s" "offer" "compl" "drop" "live" "p50 ms"
         "p99 ms" "p999 ms")
      (List.map2 capacity_row capacity capacity_results)
    ^ "\n"
    ^ buf_table
        (Printf.sprintf
           "Section 5.5 at scale: adversarial client mix (%s x %s, \
            adversary negotiates x25519)"
           ak asa)
        (Printf.sprintf "%5s %8s %6s %6s %5s %8s %10s %10s" "util" "adv mix"
           "offer" "compl" "drop" "p99 ms" "amplif" "adv CPU")
        (List.map2 attack_row attack attack_results)
  | _ -> assert false

(* ---- Table 6 ----------------------------------------------------------- *)

(* steady-state amortization under workload mixes: the reference pair,
   a mid lattice pair and the hash-based outlier. The outlier is the
   point of the table — at 90 % resumption its huge per-handshake
   server flight collapses toward the KA-only cost, because
   Certificate/CertificateVerify leave the wire on resumed connections *)
let table6_pairs =
  [ ("x25519", "rsa:2048"); ("kyber768", "dilithium3");
    ("kyber512", "sphincs128") ]

let table6 ~pairs ~mixes ~max_samples ~seed exec =
  let specs =
    List.concat_map
      (fun (k, s) ->
        List.map
          (fun mix ->
            Experiment.spec ~seed ~max_samples ~mix
              (Pqc.Registry.find_kem k) (Pqc.Registry.find_sig s))
          mixes)
      pairs
  in
  let row (sp : Experiment.spec) r =
    let o = Result.to_option r in
    (* median latency of the full or the resumed handshakes, if any ran *)
    let p50 resumed (o : Experiment.outcome) =
      match List.filter (fun s -> s.Experiment.resumed = resumed) o.samples with
      | [] -> None
      | subset ->
        Some (Stats.median (List.map (fun s -> s.Experiment.total_ms) subset))
    in
    let mean_i f (o : Experiment.outcome) =
      Stats.mean (List.map (fun s -> float_of_int (f s)) o.samples)
    in
    Printf.sprintf "%-15s %-12s %-20s %s %s %s %s %s %s %s%s"
      sp.sp_kem.Pqc.Kem.name sp.sp_sig.Pqc.Sigalg.name sp.sp_mix.Mix.label
      (or_dash 8 "%8.2f" Fun.id (Option.bind o (p50 false)))
      (or_dash 8 "%8.2f" Fun.id (Option.bind o (p50 true)))
      (or_dash 9 "%9.0f" (mean_i (fun s -> s.Experiment.client_bytes)) o)
      (or_dash 9 "%9.0f" (mean_i (fun s -> s.Experiment.server_bytes)) o)
      (or_dash 8 "%8.2f" (fun o -> o.Experiment.server_cpu_ms) o)
      (or_dash 7 "%7d" (fun o -> o.Experiment.handshakes_per_minute) o)
      (or_dash 7 "%7d"
         (fun o ->
           List.fold_left
             (fun acc s -> acc + s.Experiment.early_data_bytes)
             0 o.Experiment.samples)
         o)
      (failed_suffix o)
  in
  buf_table
    "Table 6: steady-state cost under workload mixes (PSK resumption, 0-RTT)"
    (Printf.sprintf "%-15s %-12s %-20s %8s %8s %9s %9s %8s %7s %7s" "KA" "SA"
       "mix" "full p50" "res p50" "cl B/hs" "sv B/hs" "sv ms" "hs/min"
       "0RTT B")
    (List.map2 row specs (Exec.cells exec specs))

(* ---- Table 7 (signature placement) ------------------------------------- *)

(* the Table 6 anchor pairs: the classical baseline, a mid lattice pair,
   and the hash-based outlier whose chain bytes dominate everything *)
let table7_pairs = table6_pairs

(* the two deterministic paper scenarios: an unimpaired link pins the
   CPU story, the 0.5 s-delay link exposes the flight cliff *)
let table7_scenarios = [ Scenario.no_emulation; Scenario.high_delay ]

let cwnd_variant segments =
  { Netsim.Tcp.default_config with Netsim.Tcp.init_cwnd_segments = segments }

let table7 ~pairs ~profiles ~max_samples ~seed exec =
  let meta =
    List.concat_map (fun (k, s) -> List.map (fun p -> (k, s, p)) profiles) pairs
  in
  let results =
    Tablefmt.chunks (Exec.cells exec)
      (List.map
         (fun (k, s, chain) ->
           List.map
             (fun scenario ->
               Experiment.spec ~seed ~max_samples ~scenario ~chain
                 (Pqc.Registry.find_kem k) (Pqc.Registry.find_sig s))
             table7_scenarios)
         meta)
  in
  let row (k, s, (profile : Tls.Chain_profile.t)) results =
    let levels = Placement.chain_stats ~profile s in
    let chain_b =
      List.fold_left (fun a l -> a + l.Tls.Chain.lv_bytes) 0 levels
    in
    let verify_ms =
      List.fold_left (fun a l -> a +. l.Tls.Chain.lv_verify_ms) 0. levels
    in
    (* server flight bytes measured on the unimpaired link *)
    let sv_bytes =
      match results with
      | Ok o :: _ ->
        Some (Experiment.median_bytes (fun s -> s.Experiment.server_bytes) o)
      | _ -> None
    in
    let flights segments =
      or_dash 5 "%5d"
        (Placement.flights_to_deliver ~tcp:(cwnd_variant segments))
        sv_bytes
    in
    Printf.sprintf "%-12s %-12s %-16s %5d %8d %8.3f %s %s %s %s" k s
      profile.name
      (Tls.Chain_profile.depth profile)
      chain_b verify_ms
      (totals 8 "%8.2f" results)
      (or_dash 8 "%8d" Fun.id sv_bytes)
      (flights 10) (flights 40)
  in
  let breakdown_row (_, s, (profile : Tls.Chain_profile.t)) =
    List.map
      (fun (l : Tls.Chain.level_stat) ->
        Printf.sprintf "%-12s %-16s %-6s %-14s %8d %8.3f" s profile.name
          l.lv_name l.lv_issuer_sa l.lv_bytes l.lv_verify_ms)
      (Placement.chain_stats ~profile s)
  in
  buf_table
    "Table 7: signature placement across certificate hierarchies \
     (root/intermediate/leaf)"
    (Printf.sprintf "%-12s %-12s %-16s %5s %8s %8s %8s %8s %8s %5s %5s" "KA"
       "SA" "chain" "depth" "chain B" "vfy ms" "p50 none" "p50 dly" "sv B"
       "fl@10" "fl@40")
    (List.map2 row meta results)
  ^ "\n"
  ^ buf_table
      "Table 7 per-level breakdown (CertificateEntry bytes, verify CPU per \
       issuing SA)"
      (Printf.sprintf "%-12s %-16s %-6s %-14s %8s %8s" "SA" "chain" "level"
         "issuer SA" "bytes" "vfy ms")
      (List.concat_map breakdown_row meta)

(* ---- ablations --------------------------------------------------------- *)

let ablation_buffer ~seed exec =
  let limits = [ 1024; 2048; 4096; 8192; 16384; 65536 ] in
  let kem = Pqc.Registry.find_kem "kyber512" in
  let sa = Pqc.Registry.find_sig "sphincs128" in
  let results =
    Tablefmt.chunks (Exec.cells exec)
      (List.map
         (fun limit ->
           List.map
             (fun buffering ->
               Experiment.spec ~seed ~buffering ~buffer_limit:limit kem sa)
             [ Tls.Config.Default_buffered; Tls.Config.Optimized_push ])
         limits)
  in
  buf_table
    "Ablation: BIO buffer limit vs total latency (kyber512 x sphincs128, ms)"
    (Printf.sprintf "%8s %12s %12s" "limit B" "default" "optimized")
    (List.map2
       (fun limit results ->
         Printf.sprintf "%8d %s" limit (totals 12 "%12.2f" results))
       limits results)

let ablation_cwnd ~seed exec =
  let windows = [ 4; 10; 20; 40; 80 ] in
  let pairs =
    [ ("x25519", "rsa:2048"); ("kyber768", "dilithium3");
      ("kyber512", "sphincs128"); ("x25519", "sphincs256") ]
  in
  let results =
    Tablefmt.chunks (Exec.cells exec)
      (List.map
         (fun (k, s) ->
           List.map
             (fun w ->
               Experiment.spec ~seed ~scenario:Scenario.high_delay
                 ~tcp_config:(cwnd_variant w) (Pqc.Registry.find_kem k)
                 (Pqc.Registry.find_sig s))
             windows)
         pairs)
  in
  buf_table
    "Ablation: initial CWND (segments) vs high-delay latency (ms, 1 s RTT)"
    (Printf.sprintf "%-12s %-12s %s" "KA" "SA"
       (String.concat " " (List.map (Printf.sprintf "%9d") windows)))
    (List.map2
       (fun (k, s) results ->
         Printf.sprintf "%-12s %-12s %s" k s (totals 9 "%9.0f" results))
       pairs results)

(* the 2-RTT HelloRetryRequest fallback the paper configured away: cost
   of a wrong pre-computed key share, per scenario *)
let ablation_hrr ~seed exec =
  let pairs =
    [ ("x25519", "rsa:2048"); ("kyber768", "dilithium3");
      ("p521_kyber1024", "p521_dilithium5") ]
  in
  let scenarios =
    [ Scenario.no_emulation; Scenario.five_g; Scenario.high_delay ]
  in
  let results =
    Tablefmt.chunks (Exec.cells exec)
      (List.map
         (fun (k, s) ->
           let kem = Pqc.Registry.find_kem k and sa = Pqc.Registry.find_sig s in
           List.concat_map
             (fun scenario ->
               List.map
                 (fun wrong_key_share ->
                   Experiment.spec ~seed ~scenario ~wrong_key_share kem sa)
                 [ false; true ])
             scenarios)
         pairs)
  in
  buf_table
    "Ablation: HelloRetryRequest fallback (total ms; guessed vs wrong key share)"
    (Printf.sprintf "%-15s %-16s %s" "KA" "SA"
       (String.concat " "
          (List.concat_map
             (fun sc ->
               [ Printf.sprintf "%9s" sc.Scenario.name;
                 Printf.sprintf "%9s" (sc.Scenario.name ^ "+HRR") ])
             scenarios)))
    (List.map2
       (fun (k, s) results ->
         Printf.sprintf "%-15s %-16s %s" k s (totals 9 "%9.2f" results))
       pairs results)

(* ---- Appendix B.6 ------------------------------------------------------ *)

(* the all-sphincs run: find the fastest SPHINCS+ profile *)
let all_sphincs ~seed exec =
  let variants = Pqc.Registry.sphincs_variants in
  let results =
    Exec.cells exec
      (List.map
         (fun v -> Experiment.spec ~seed Pqc.Registry.baseline_kem v)
         variants)
  in
  (* failed variants drop out of the ranking and are marked below it *)
  let ranked, failed =
    List.partition_map
      (fun ((v : Pqc.Sigalg.t), r) ->
        match r with
        | Ok o -> Either.Left (v, total o)
        | Error _ -> Either.Right (v, None))
      (List.combine variants results)
  in
  let ranked = List.sort (fun (_, a) (_, b) -> Float.compare a b) ranked in
  let b = Buffer.create 1024 in
  Buffer.add_string b
    "SPHINCS+ variant selection (x25519 KA), fastest first:\n";
  List.iter
    (fun ((v : Pqc.Sigalg.t), t) ->
      Printf.bprintf b "  %-14s %s ms   %s\n" v.name
        (or_dash 9 "%9.2f" Fun.id t)
        (match t with
        | Some _ -> Printf.sprintf "sig %6d B" v.signature_bytes
        | None -> "(cell failed)"))
    (List.map (fun (v, t) -> (v, Some t)) ranked @ failed);
  (match ranked with
  | ((best : Pqc.Sigalg.t), _) :: _ ->
    Printf.bprintf b
      "fastest: %s -- the f(ast) simple profile, matching the paper's pick\n"
      best.name
  | [] -> ());
  Buffer.contents b

(* ---- the catalog ------------------------------------------------------- *)

let entries : (string * string * (seed:string -> Exec.t -> string)) list =
  let level_entries suffix describe render =
    List.map
      (fun (level, label) ->
        ( Printf.sprintf "level%d%s" level suffix,
          Printf.sprintf describe label,
          render level ))
      [ (1, "1-2"); (3, "3"); (5, "5") ]
  in
  [ ( "all-kem", "Table 2a campaign: every KA with rsa:2048",
      table2
        "Table 2a: handshake latency, data usage and count (KAs with rsa:2048)"
        ka_sweep );
    ( "all-sig", "Table 2b campaign: every SA with x25519",
      table2
        "Table 2b: handshake latency, data usage and count (SAs with x25519)"
        sa_sweep );
    ( "figure3", "Figure 3: KA/SA independence, levels 1-2/3/5, both \
                  bufferings and the optimized-vs-default improvement",
      figure3 );
    ("table3", "Table 3: white-box CPU shares per library", table3);
    ( "figure4", "Figure 4: log-scaled ranking of KAs and SAs from Table 2",
      figure4 ) ]
  @ level_entries "" "Figure 3 campaign, level %s, optimized buffering"
      (level_report ~buffering:Tls.Config.Optimized_push)
  @ level_entries "-nopush" "Figure 3 campaign, level %s, default buffering"
      (level_report ~buffering:Tls.Config.Default_buffered)
  @ level_entries "-perf" "Table 3 rows on level %s" perf_report
  @ [ ( "all-kem-scenarios", "Table 4a campaign: KAs under netem scenarios",
        table4
          "Table 4a: median handshake latency (ms) per network scenario \
           (KAs, sim/paper)"
          ka_sweep );
      ( "all-sig-scenarios", "Table 4b campaign: SAs under netem scenarios",
        table4
          "Table 4b: median handshake latency (ms) per network scenario \
           (SAs, sim/paper)"
          sa_sweep );
      ("all-sphincs", "SPHINCS+ variant selection (Appendix B.6)", all_sphincs);
      ("attack", "Section 5.5 asymmetry survey", attack);
      ( "farm", "Table 5 campaign: server-farm capacity, tail latency and \
                 adversarial mix",
        table5 ~pairs:table5_pairs
          ~profiles:
            (List.map (fun w -> w.Netsim.Workload.name) Netsim.Workload.all)
          ~utilizations:[ 0.70; 0.90; 0.99 ] ~servers:3 ~duration_s:1.0
          ~capacity_connections:1200 ~attack_connections:900 );
      ( "farm-smoke", "Table 5 campaign at CI smoke size",
        table5
          ~pairs:[ ("x25519", "rsa:2048"); ("kyber768", "dilithium3") ]
          ~profiles:[ "poisson"; "flash-crowd" ] ~utilizations:[ 0.90 ]
          ~servers:2 ~duration_s:0.4 ~capacity_connections:240
          ~attack_connections:200 );
      ( "mixes", "Table 6 campaign: steady-state cost under PSK-resumption \
                  and 0-RTT workload mixes",
        table6 ~pairs:table6_pairs ~mixes:Mix.all ~max_samples:60 );
      ( "mixes-smoke", "Table 6 campaign at CI smoke size",
        table6
          ~pairs:[ ("x25519", "rsa:2048"); ("kyber512", "sphincs128") ]
          ~mixes:[ Mix.full; Mix.find "resumed90"; Mix.find "resumed90-0rtt" ]
          ~max_samples:12 );
      ( "chains", "Table 7 campaign: signature placement across certificate \
                   hierarchies (chain profiles, flights-to-deliver)",
        table7 ~pairs:table7_pairs ~profiles:Tls.Chain_profile.all
          ~max_samples:40 );
      ( "chains-smoke", "Table 7 campaign at CI smoke size",
        table7
          ~pairs:[ ("x25519", "rsa:2048"); ("kyber512", "sphincs128") ]
          ~profiles:
            [ Tls.Chain_profile.default;
              Tls.Chain_profile.find "slhdsa-root";
              Tls.Chain_profile.find "mixed-acme" ]
          ~max_samples:10 );
      ("ablation-buffer", "BIO buffer-limit sweep", ablation_buffer);
      ("ablation-cwnd", "initial congestion-window sweep", ablation_cwnd);
      ( "ablation-hrr", "HelloRetryRequest (wrong key-share) fallback cost",
        ablation_hrr ) ]

(* paper-table spellings accepted as synonyms (the CI smoke jobs use
   these) *)
let aliases =
  [ ("table2a", "all-kem");
    ("table2b", "all-sig");
    ("table4a", "all-kem-scenarios");
    ("table4b", "all-sig-scenarios");
    ("table5", "farm");
    ("table6", "mixes");
    ("table7", "chains") ]

let names = List.map (fun (n, _, _) -> n) entries

let resolve name =
  match List.assoc_opt name aliases with Some n -> n | None -> name

let find name =
  let name = resolve name in
  match List.find_opt (fun (n, _, _) -> n = name) entries with
  | Some e -> e
  | None -> invalid_arg ("Catalog: unknown experiment " ^ name)

let run ~seed ?(exec = Exec.sequential ()) name =
  let _, _, render = find name in
  render ~seed exec

let describe name =
  let _, d, _ = find name in
  d
