(* cell/table rendering shared with Catalog *)
let buf_table = Tablefmt.buf_table
let fmt_paper = Tablefmt.fmt_paper
let dash = Tablefmt.dash

let part_a o = Experiment.median_of (fun s -> s.Experiment.part_a_ms) o
let part_b o = Experiment.median_of (fun s -> s.Experiment.part_b_ms) o
let total o = Experiment.median_of (fun s -> s.Experiment.total_ms) o
let cbytes o = Experiment.median_bytes (fun s -> s.Experiment.client_bytes) o
let sbytes o = Experiment.median_bytes (fun s -> s.Experiment.server_bytes) o

(* ---- Table 2 ------------------------------------------------------------ *)

type t2_data = {
  t2_name : string;
  t2_sim : (float * float * int * int * int) option;
      (* partA, partB, count, client B, server B; None = cell failed *)
  t2_paper : (float * float * float * int * int) option;
}

let table2_data ?seed ?(exec = Exec.sequential ()) which =
  let algs, spec_of, find =
    match which with
    | `A ->
      ( List.map (fun (k : Pqc.Kem.t) -> k.name) Pqc.Registry.kems,
        (fun name ->
          Experiment.spec ?seed (Pqc.Registry.find_kem name)
            Pqc.Registry.baseline_sig),
        fun name ->
          Option.map
            (fun (r : Paper_data.t2_row) ->
              (r.part_a, r.part_b, r.total_k, r.client_b, r.server_b))
            (Paper_data.find2a name) )
    | `B ->
      ( List.map (fun (s : Pqc.Sigalg.t) -> s.name) Pqc.Registry.sigs,
        (fun name ->
          Experiment.spec ?seed Pqc.Registry.baseline_kem
            (Pqc.Registry.find_sig name)),
        fun name ->
          Option.map
            (fun (r : Paper_data.t2_row) ->
              (r.part_a, r.part_b, r.total_k, r.client_b, r.server_b))
            (Paper_data.find2b name) )
  in
  let results = Exec.cells exec (List.map spec_of algs) in
  List.map2
    (fun name r ->
      { t2_name = name;
        t2_sim =
          (match r with
          | Ok o ->
            Some
              ( part_a o, part_b o, o.Experiment.handshakes_per_minute,
                cbytes o, sbytes o )
          | Error _ -> None);
        t2_paper = find name })
    algs results

let table2_rows ?seed ?exec which =
  List.map
    (fun r ->
      let pa, pb, tk, cb, sb =
        match r.t2_paper with
        | Some v -> v
        | None -> (nan, nan, nan, 0, 0)
      in
      match r.t2_sim with
      | Some (spa, spb, scount, scb, ssb) ->
        Printf.sprintf
          "%-20s %6.2f %s | %6.2f %s | %6.1fk %5.1fk | %7d %7d | %7d %7d"
          r.t2_name spa (fmt_paper pa) spb (fmt_paper pb)
          (float_of_int scount /. 1000.)
          tk scb cb ssb sb
      | None ->
        Printf.sprintf "%-20s %s %s | %s %s | %s %5.1fk | %s %7d | %s %7d"
          r.t2_name (dash 6) (fmt_paper pa) (dash 6) (fmt_paper pb) (dash 7)
          tk (dash 7) cb (dash 7) sb)
    (table2_data ?seed ?exec which)

let table2_csv ?seed ?exec which =
  let b = Buffer.create 2048 in
  Buffer.add_string b
    "algorithm,partA_ms,partB_ms,handshakes_per_60s,client_bytes,server_bytes,\
     paper_partA_ms,paper_partB_ms,paper_handshakes,paper_client_bytes,paper_server_bytes\n";
  List.iter
    (fun r ->
      let ppa, ppb, ptk, pcb, psb =
        match r.t2_paper with
        | Some v -> v
        | None -> (nan, nan, nan, 0, 0)
      in
      let f v = if Float.is_nan v then "" else Printf.sprintf "%.3f" v in
      let sim =
        match r.t2_sim with
        | Some (spa, spb, scount, scb, ssb) ->
          Printf.sprintf "%.3f,%.3f,%d,%d,%d" spa spb scount scb ssb
        | None -> ",,,," (* failed cell: empty sim columns *)
      in
      Buffer.add_string b
        (Printf.sprintf "%s,%s,%s,%s,%s,%d,%d\n" r.t2_name sim (f ppa) (f ppb)
           (f (ptk *. 1000.)) pcb psb))
    (table2_data ?seed ?exec which);
  Buffer.contents b

let table2a_csv ?seed ?exec () = table2_csv ?seed ?exec `A
let table2b_csv ?seed ?exec () = table2_csv ?seed ?exec `B

let header2 =
  Printf.sprintf "%-20s %14s | %14s | %14s | %15s | %15s" "algorithm"
    "partA sim/pap" "partB sim/pap" "#60s sim/pap" "client B sim/pap"
    "server B sim/pap"

let table2a ?seed ?exec () =
  buf_table
    "Table 2a: handshake latency, data usage and count (KAs with rsa:2048)"
    header2
    (table2_rows ?seed ?exec `A)

let table2b ?seed ?exec () =
  buf_table
    "Table 2b: handshake latency, data usage and count (SAs with x25519)"
    header2
    (table2_rows ?seed ?exec `B)

(* ---- Table 3 ------------------------------------------------------------ *)

let fmt_libs libs =
  libs
  |> List.filter (fun (_, f) -> f >= 0.005)
  |> List.map (fun (lib, f) -> Printf.sprintf "%s %.0f%%" lib (100. *. f))
  |> String.concat " "

let table3 ?seed ?exec () =
  let rows =
    List.map2
      (fun (level, kem, sa) r ->
        match r with
        | Some r ->
          Printf.sprintf
            "%d %-14s %-15s %5.0f | %5.2f %5.2f | %3d %3d | S: %s | C: %s"
            r.Whitebox.level r.Whitebox.kem r.Whitebox.sa
            r.Whitebox.handshakes_per_s r.Whitebox.server_cpu_ms
            r.Whitebox.client_cpu_ms r.Whitebox.server_pkts
            r.Whitebox.client_pkts
            (fmt_libs r.Whitebox.server_libs)
            (fmt_libs r.Whitebox.client_libs)
        | None ->
          Printf.sprintf "%d %-14s %-15s %s | %s %s | %s %s | (cell failed)"
            level kem sa (dash 5) (dash 5) (dash 5) (dash 3) (dash 3))
      Whitebox.paper_pairs
      (Whitebox.table ?seed ?exec ())
  in
  buf_table "Table 3: white-box measurements"
    (Printf.sprintf "L %-14s %-15s %5s | %11s | %7s | %s" "KA" "SA" "HS/s"
       "CPU srv/cli" "pkt s/c" "library distribution")
    rows

(* ---- Table 4 ------------------------------------------------------------ *)

let table4_rows ?seed ?(exec = Exec.sequential ()) which =
  let algs, spec_of, find =
    match which with
    | `A ->
      ( List.map (fun (k : Pqc.Kem.t) -> k.name) Pqc.Registry.kems,
        (fun name sc ->
          Experiment.spec ?seed ~scenario:sc (Pqc.Registry.find_kem name)
            Pqc.Registry.baseline_sig),
        Paper_data.find4a )
    | `B ->
      ( List.map (fun (s : Pqc.Sigalg.t) -> s.name) Pqc.Registry.sigs,
        (fun name sc ->
          Experiment.spec ?seed ~scenario:sc Pqc.Registry.baseline_kem
            (Pqc.Registry.find_sig name)),
        Paper_data.find4b )
  in
  let nsc = List.length Scenario.all in
  let outcomes =
    Exec.cells exec
      (List.concat_map
         (fun name -> List.map (spec_of name) Scenario.all)
         algs)
    |> Array.of_list
  in
  List.mapi
    (fun i name ->
      let paper =
        match find name with
        | Some (r : Paper_data.t4_row) ->
          [ r.none; r.loss; r.bandwidth; r.delay; r.lte_m; r.five_g ]
        | None -> [ nan; nan; nan; nan; nan; nan ]
      in
      let sims =
        List.init nsc (fun j ->
            match outcomes.((i * nsc) + j) with
            | Ok o -> Some (total o)
            | Error _ -> None)
      in
      let cols =
        List.map2
          (fun sim pap ->
            match sim with
            | Some v -> Printf.sprintf "%8.2f %s" v (fmt_paper pap)
            | None -> Printf.sprintf "%s %s" (dash 8) (fmt_paper pap))
          sims paper
      in
      Printf.sprintf "%-20s %s" name (String.concat " | " cols))
    algs

let header4 =
  Printf.sprintf "%-20s %s" "algorithm"
    (String.concat " | "
       (List.map
          (fun sc -> Printf.sprintf "%15s" sc.Scenario.label)
          Scenario.all))

let table4a ?seed ?exec () =
  buf_table
    "Table 4a: median handshake latency (ms) per network scenario (KAs, sim/paper)"
    header4
    (table4_rows ?seed ?exec `A)

let table4b ?seed ?exec () =
  buf_table
    "Table 4b: median handshake latency (ms) per network scenario (SAs, sim/paper)"
    header4
    (table4_rows ?seed ?exec `B)

(* ---- Figure 3 ------------------------------------------------------------ *)

let figure3 ?(seed = "figure3") ?exec () =
  let b = Buffer.create 8192 in
  let levels = [ 1; 3; 5 ] in
  let grids_opt = List.map (Deviation.analyze ~seed ?exec) levels in
  let grids_def =
    List.map
      (Deviation.analyze ~buffering:Tls.Config.Default_buffered ~seed ?exec)
      levels
  in
  let dump title grids =
    Buffer.add_string b (title ^ "\n");
    Buffer.add_string b
      "  level KA              SA              measured expected deviation\n";
    List.iter
      (fun (g : Deviation.grid) ->
        List.iter
          (fun (c : Deviation.cell) ->
            Buffer.add_string b
              (Printf.sprintf "  %d     %-15s %-15s %8.2f %8.2f %+9.2f\n"
                 g.Deviation.level c.Deviation.kem c.Deviation.sa
                 c.Deviation.measured_ms c.Deviation.expected_ms
                 c.Deviation.deviation_ms))
          g.Deviation.cells;
        List.iter
          (fun (k, s) ->
            Buffer.add_string b
              (Printf.sprintf "  %d     %-15s %-15s %s %s %s  (cell failed)\n"
                 g.Deviation.level k s (dash 8) (dash 8) (dash 9)))
          g.Deviation.failed)
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

(* ---- Figure 4 ------------------------------------------------------------ *)

let figure4 ?(seed = "figure4") ?(exec = Exec.sequential ()) () =
  let b = Buffer.create 2048 in
  let kem_specs =
    List.map
      (fun (k : Pqc.Kem.t) ->
        Experiment.spec ~seed (Pqc.Registry.find_kem k.name)
          Pqc.Registry.baseline_sig)
      Pqc.Registry.kems
  in
  let sig_specs =
    List.map
      (fun (s : Pqc.Sigalg.t) ->
        Experiment.spec ~seed Pqc.Registry.baseline_kem
          (Pqc.Registry.find_sig s.name))
      Pqc.Registry.sigs
  in
  let outcomes = Exec.cells exec (kem_specs @ sig_specs) in
  let rec split n = function
    | rest when n = 0 -> ([], rest)
    | x :: rest ->
      let a, b = split (n - 1) rest in
      (x :: a, b)
    | [] -> invalid_arg "figure4: grid size mismatch"
  in
  let kem_outcomes, sig_outcomes = split (List.length kem_specs) outcomes in
  (* failed cells drop out of the ranking and are listed below it *)
  let keep names results =
    List.concat
      (List.map2
         (fun n r -> match r with Ok o -> [ (n, o) ] | Error _ -> [])
         names results)
  in
  let lost names results =
    List.concat
      (List.map2
         (fun n r -> match r with Ok _ -> [] | Error _ -> [ n ])
         names results)
  in
  let kem_names = List.map (fun (k : Pqc.Kem.t) -> k.name) Pqc.Registry.kems in
  let sig_names = List.map (fun (s : Pqc.Sigalg.t) -> s.name) Pqc.Registry.sigs in
  let run_kems = keep kem_names kem_outcomes in
  let run_sigs = keep sig_names sig_outcomes in
  let dump title entries failures =
    Buffer.add_string b (title ^ "\n");
    List.iter
      (fun (e : Ranking.entry) ->
        Buffer.add_string b
          (Printf.sprintf "  [%2d] %-20s %8.2f ms\n" e.Ranking.rank
             e.Ranking.name e.Ranking.latency_ms))
      entries;
    List.iter
      (fun n ->
        Buffer.add_string b
          (Printf.sprintf "  [ %s] %-20s %s ms  (cell failed)\n"
             Tablefmt.em_dash n (dash 8)))
      failures;
    Buffer.add_char b '\n'
  in
  dump "Figure 4 (top): key agreements ranked by log-scaled latency"
    (Ranking.kem_ranking run_kems)
    (lost kem_names kem_outcomes);
  dump "Figure 4 (bottom): signature algorithms ranked by log-scaled latency"
    (Ranking.sig_ranking run_sigs)
    (lost sig_names sig_outcomes);
  Buffer.contents b

(* ---- Section 5.5 ---------------------------------------------------------- *)

let attack ?seed ?exec () =
  let rows = Amplification.survey ?seed ?exec () in
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

(* ---- Table 5 ------------------------------------------------------------- *)

(* the capacity campaign covers the paper's reference pair plus one
   lattice pair per level and the hash-based outlier — the pairs whose
   single-handshake profiles differ most, so farm behaviour separates *)
let table5_pairs =
  [ ("x25519", "rsa:2048"); ("kyber512", "dilithium2");
    ("kyber768", "dilithium3"); ("kyber512", "sphincs128") ]

let farm_p50_p99_p999 (o : Experiment.farm_outcome) =
  match
    Stats.percentiles [ 0.5; 0.99; 0.999 ] o.Experiment.fo_latencies_ms
  with
  | [ p50; p99; p999 ] -> (p50, p99, p999)
  | _ -> assert false

let table5_capacity ~seed ~exec ~pairs ~profiles ~servers ~duration_s
    ~max_connections =
  let specs =
    List.concat_map
      (fun (k, s) ->
        List.map
          (fun profile ->
            Experiment.farm_spec ~seed ~profile ~servers ~duration_s
              ~max_connections (Pqc.Registry.find_kem k)
              (Pqc.Registry.find_sig s))
          profiles)
      pairs
  in
  let rows =
    List.map2
      (fun sp r ->
        match r with
        | Ok (o : Experiment.farm_outcome) ->
          let p50, p99, p999 = farm_p50_p99_p999 o in
          Printf.sprintf
            "%-15s %-12s %-12s %8.0f %6d %6d %5d %4d %8.2f %8.2f %8.2f"
            o.Experiment.fo_kem_name o.Experiment.fo_sig_name
            o.Experiment.fo_profile o.Experiment.fo_capacity_hs_s
            o.Experiment.fo_offered o.Experiment.fo_completed
            o.Experiment.fo_dropped o.Experiment.fo_unfinished p50 p99 p999
        | Error _ ->
          Printf.sprintf
            "%-15s %-12s %-12s %s %s %s %s %s %s %s %s  (cell failed)"
            sp.Experiment.fa_kem.Pqc.Kem.name
            sp.Experiment.fa_sig.Pqc.Sigalg.name sp.Experiment.fa_profile
            (dash 8) (dash 6) (dash 6) (dash 5) (dash 4) (dash 8) (dash 8)
            (dash 8))
      specs
      (Exec.farm_cells exec specs)
  in
  buf_table
    (Printf.sprintf
       "Table 5: sustainable handshake capacity and tail latency (%d \
        single-core servers, 90%% utilization)"
       servers)
    (Printf.sprintf "%-15s %-12s %-12s %8s %6s %6s %5s %4s %8s %8s %8s" "KA"
       "SA" "profile" "cap/s" "offer" "compl" "drop" "live" "p50 ms" "p99 ms"
       "p999 ms")
    rows

(* section 5.5 at farm scale: a fraction of arrivals are adversarial
   clients negotiating the cheapest KEM (x25519 — a few hundred client
   bytes buying the full SA-dominated server flight and its CPU) *)
let table5_attack ~seed ~exec ~servers ~duration_s ~max_connections
    ~utilizations ~adv_fractions (k, s) =
  let specs =
    List.concat_map
      (fun u ->
        List.map
          (fun adv ->
            Experiment.farm_spec ~seed ~servers ~duration_s ~max_connections
              ~utilization:u ~adv_fraction:adv (Pqc.Registry.find_kem k)
              (Pqc.Registry.find_sig s))
          adv_fractions)
      utilizations
  in
  let rows =
    List.map2
      (fun sp r ->
        match r with
        | Ok (o : Experiment.farm_outcome) ->
          let _, p99, _ = farm_p50_p99_p999 o in
          let amp =
            if o.Experiment.fo_adv_client_bytes = 0 then 0.
            else
              float_of_int o.Experiment.fo_adv_server_bytes
              /. float_of_int o.Experiment.fo_adv_client_bytes
          in
          let cpu_share =
            if o.Experiment.fo_server_cpu_ms = 0. then 0.
            else
              float_of_int o.Experiment.fo_adv_completed
              *. o.Experiment.fo_cal_adv_server_cpu_ms
              /. o.Experiment.fo_server_cpu_ms
          in
          Printf.sprintf
            "%4.0f%% %7.0f%% %6d %6d %5d %8.2f %9.2fx %9.0f%%"
            (100. *. sp.Experiment.fa_utilization)
            (100. *. sp.Experiment.fa_adv_fraction)
            o.Experiment.fo_offered o.Experiment.fo_completed
            o.Experiment.fo_dropped p99 amp (100. *. cpu_share)
        | Error _ ->
          Printf.sprintf "%4.0f%% %7.0f%% %s %s %s %s %s %s  (cell failed)"
            (100. *. sp.Experiment.fa_utilization)
            (100. *. sp.Experiment.fa_adv_fraction)
            (dash 6) (dash 6) (dash 5) (dash 8) (dash 10) (dash 10))
      specs
      (Exec.farm_cells exec specs)
  in
  buf_table
    (Printf.sprintf
       "Section 5.5 at scale: adversarial client mix (%s x %s, adversary \
        negotiates x25519)"
       k s)
    (Printf.sprintf "%5s %8s %6s %6s %5s %8s %10s %10s" "util" "adv mix"
       "offer" "compl" "drop" "p99 ms" "amplif" "adv CPU")
    rows

let table5 ?(seed = "table5") ?(exec = Exec.sequential ()) () =
  table5_capacity ~seed ~exec ~pairs:table5_pairs
    ~profiles:(List.map (fun w -> w.Netsim.Workload.name) Netsim.Workload.all)
    ~servers:3 ~duration_s:1.0 ~max_connections:1200
  ^ "\n"
  ^ table5_attack ~seed ~exec ~servers:3 ~duration_s:1.0 ~max_connections:900
      ~utilizations:[ 0.70; 0.90; 0.99 ] ~adv_fractions:[ 0.; 0.3 ]
      ("kyber512", "sphincs128")

(* the CI gate's campaign: same shape, farm sizes cut for wall clock *)
let table5_smoke ?(seed = "table5") ?(exec = Exec.sequential ()) () =
  table5_capacity ~seed ~exec
    ~pairs:[ ("x25519", "rsa:2048"); ("kyber768", "dilithium3") ]
    ~profiles:[ "poisson"; "flash-crowd" ] ~servers:2 ~duration_s:0.4
    ~max_connections:240
  ^ "\n"
  ^ table5_attack ~seed ~exec ~servers:2 ~duration_s:0.4 ~max_connections:200
      ~utilizations:[ 0.90 ] ~adv_fractions:[ 0.; 0.3 ]
      ("kyber512", "sphincs128")

(* ---- Table 6 ------------------------------------------------------------- *)

(* steady-state amortization under workload mixes: the reference pair,
   a mid lattice pair and the hash-based outlier. The outlier is the
   point of the table — at 90 % resumption its huge per-handshake
   server flight collapses toward the KA-only cost, because
   Certificate/CertificateVerify leave the wire on resumed connections *)
let table6_pairs =
  [ ("x25519", "rsa:2048"); ("kyber768", "dilithium3");
    ("kyber512", "sphincs128") ]

let table6_grid ~seed ~exec ~pairs ~mixes ~max_samples =
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
  let rows =
    List.map2
      (fun sp r ->
        match r with
        | Ok (o : Experiment.outcome) ->
          let samples = o.Experiment.samples in
          let resumed, full =
            List.partition (fun s -> s.Experiment.resumed) samples
          in
          let p50 subset =
            match subset with
            | [] -> Printf.sprintf "%8s" (dash 8)
            | _ ->
              Printf.sprintf "%8.2f"
                (Stats.median
                   (List.map (fun s -> s.Experiment.total_ms) subset))
          in
          let mean_i f =
            Stats.mean (List.map (fun s -> float_of_int (f s)) samples)
          in
          let early =
            List.fold_left
              (fun acc s -> acc + s.Experiment.early_data_bytes)
              0 samples
          in
          Printf.sprintf "%-15s %-12s %-20s %s %s %9.0f %9.0f %8.2f %7d %7d"
            o.Experiment.kem_name o.Experiment.sig_name
            sp.Experiment.sp_mix.Mix.label (p50 full) (p50 resumed)
            (mean_i (fun s -> s.Experiment.client_bytes))
            (mean_i (fun s -> s.Experiment.server_bytes))
            o.Experiment.server_cpu_ms o.Experiment.handshakes_per_minute
            early
        | Error _ ->
          Printf.sprintf
            "%-15s %-12s %-20s %8s %8s %9s %9s %8s %7s %7s  (cell failed)"
            sp.Experiment.sp_kem.Pqc.Kem.name
            sp.Experiment.sp_sig.Pqc.Sigalg.name
            sp.Experiment.sp_mix.Mix.label (dash 8) (dash 8) (dash 9)
            (dash 9) (dash 8) (dash 7) (dash 7))
      specs (Exec.cells exec specs)
  in
  buf_table
    "Table 6: steady-state cost under workload mixes (PSK resumption, 0-RTT)"
    (Printf.sprintf "%-15s %-12s %-20s %8s %8s %9s %9s %8s %7s %7s" "KA" "SA"
       "mix" "full p50" "res p50" "cl B/hs" "sv B/hs" "sv ms" "hs/min"
       "0RTT B")
    rows

let table6 ?(seed = "table6") ?(exec = Exec.sequential ()) () =
  table6_grid ~seed ~exec ~pairs:table6_pairs ~mixes:Mix.all ~max_samples:60

(* the CI gate's campaign: two pairs, three mixes, a dozen samples *)
let table6_smoke ?(seed = "table6") ?(exec = Exec.sequential ()) () =
  table6_grid ~seed ~exec
    ~pairs:[ ("x25519", "rsa:2048"); ("kyber512", "sphincs128") ]
    ~mixes:[ Mix.full; Mix.find "resumed90"; Mix.find "resumed90-0rtt" ]
    ~max_samples:12

(* ---- Table 7 (signature placement) ---------------------------------------- *)

let table7 = Placement.table7
let table7_smoke = Placement.table7_smoke

(* ---- ablations ------------------------------------------------------------ *)

let ablation_buffer ?(seed = "ablation") ?(exec = Exec.sequential ()) () =
  let limits = [ 1024; 2048; 4096; 8192; 16384; 65536 ] in
  let kem = Pqc.Registry.find_kem "kyber512" in
  let sa = Pqc.Registry.find_sig "sphincs128" in
  let outcomes =
    Exec.cells exec
      (List.concat_map
         (fun limit ->
           List.map
             (fun buffering ->
               Experiment.spec ~seed ~buffering ~buffer_limit:limit kem sa)
             [ Tls.Config.Default_buffered; Tls.Config.Optimized_push ])
         limits)
    |> Array.of_list
  in
  let cell r =
    match r with
    | Ok o -> Printf.sprintf "%12.2f" (total o)
    | Error _ -> dash 12
  in
  let rows =
    List.mapi
      (fun i limit ->
        Printf.sprintf "%8d %s %s" limit
          (cell outcomes.(2 * i))
          (cell outcomes.((2 * i) + 1)))
      limits
  in
  buf_table
    "Ablation: BIO buffer limit vs total latency (kyber512 x sphincs128, ms)"
    (Printf.sprintf "%8s %12s %12s" "limit B" "default" "optimized")
    rows

let ablation_cwnd ?(seed = "ablation") ?(exec = Exec.sequential ()) () =
  let windows = [ 4; 10; 20; 40; 80 ] in
  let pairs =
    [ ("x25519", "rsa:2048"); ("kyber768", "dilithium3");
      ("kyber512", "sphincs128"); ("x25519", "sphincs256") ]
  in
  let outcomes =
    Exec.cells exec
      (List.concat_map
         (fun (k, s) ->
           List.map
             (fun w ->
               let tcp_config =
                 { Netsim.Tcp.default_config with
                   Netsim.Tcp.init_cwnd_segments = w }
               in
               Experiment.spec ~seed ~scenario:Scenario.high_delay ~tcp_config
                 (Pqc.Registry.find_kem k) (Pqc.Registry.find_sig s))
             windows)
         pairs)
    |> Array.of_list
  in
  let nw = List.length windows in
  let rows =
    List.mapi
      (fun i (k, s) ->
        let cells =
          List.init nw (fun j ->
              match outcomes.((i * nw) + j) with
              | Ok o -> Printf.sprintf "%9.0f" (total o)
              | Error _ -> dash 9)
        in
        Printf.sprintf "%-12s %-12s %s" k s (String.concat " " cells))
      pairs
  in
  buf_table
    "Ablation: initial CWND (segments) vs high-delay latency (ms, 1 s RTT)"
    (Printf.sprintf "%-12s %-12s %s" "KA" "SA"
       (String.concat " " (List.map (Printf.sprintf "%9d") windows)))
    rows

let ablation_hrr ?(seed = "ablation") ?(exec = Exec.sequential ()) () =
  (* the 2-RTT HelloRetryRequest fallback the paper configured away:
     cost of a wrong pre-computed key share, per scenario *)
  let pairs =
    [ ("x25519", "rsa:2048"); ("kyber768", "dilithium3");
      ("p521_kyber1024", "p521_dilithium5") ]
  in
  let scenarios = [ Scenario.no_emulation; Scenario.five_g; Scenario.high_delay ] in
  let outcomes =
    Exec.cells exec
      (List.concat_map
         (fun (k, s) ->
           let kem = Pqc.Registry.find_kem k and sa = Pqc.Registry.find_sig s in
           List.concat_map
             (fun sc ->
               List.map
                 (fun wrong ->
                   Experiment.spec ~seed ~scenario:sc ~wrong_key_share:wrong
                     kem sa)
                 [ false; true ])
             scenarios)
         pairs)
    |> Array.of_list
  in
  let per_pair = 2 * List.length scenarios in
  let rows =
    List.mapi
      (fun i (k, s) ->
        let cells =
          List.init per_pair (fun j ->
              match outcomes.((i * per_pair) + j) with
              | Ok o -> Printf.sprintf "%9.2f" (total o)
              | Error _ -> dash 9)
        in
        Printf.sprintf "%-15s %-16s %s" k s (String.concat " " cells))
      pairs
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
    rows
