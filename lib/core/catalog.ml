let level_report ?seed ?exec ~buffering level =
  let g = Deviation.analyze ?seed ?exec ~buffering level in
  let b = Buffer.create 2048 in
  Buffer.add_string b
    (Printf.sprintf "Level-%d combinations (%s buffering)\n" level
       (match buffering with
       | Tls.Config.Optimized_push -> "optimized"
       | Tls.Config.Default_buffered -> "default"));
  List.iter
    (fun (c : Deviation.cell) ->
      Buffer.add_string b
        (Printf.sprintf "  %-15s %-15s measured %8.2f expected %8.2f dev %+6.2f\n"
           c.Deviation.kem c.Deviation.sa c.Deviation.measured_ms
           c.Deviation.expected_ms c.Deviation.deviation_ms))
    g.Deviation.cells;
  List.iter
    (fun (k, s) ->
      Buffer.add_string b
        (Printf.sprintf "  %-15s %-15s measured %8s (cell failed)\n" k s
           Tablefmt.em_dash))
    g.Deviation.failed;
  Buffer.contents b

let perf_report ?seed ?exec level =
  let rows =
    List.filter (fun (l, _, _) -> l = level) Whitebox.paper_pairs
  in
  let b = Buffer.create 1024 in
  Buffer.add_string b (Printf.sprintf "Level-%d white-box profiling\n" level);
  List.iter2
    (fun (_, kem, sa) r ->
      Buffer.add_string b
        (match r with
        | Some r ->
          Printf.sprintf "  %-15s %-15s %4.0f hs/s cpu %5.2f/%5.2f ms\n"
            r.Whitebox.kem r.Whitebox.sa r.Whitebox.handshakes_per_s
            r.Whitebox.server_cpu_ms r.Whitebox.client_cpu_ms
        | None ->
          Printf.sprintf "  %-15s %-15s %4s hs/s (cell failed)\n" kem sa
            Tablefmt.em_dash))
    rows
    (Whitebox.rows ?seed ?exec rows);
  Buffer.contents b

(* the Appendix-B all-sphincs run: find the fastest SPHINCS+ profile *)
let all_sphincs_report ?seed ?(exec = Exec.sequential ()) () =
  let results =
    Exec.cells exec
      (List.map
         (fun (v : Pqc.Sigalg.t) ->
           Experiment.spec ?seed Pqc.Registry.baseline_kem v)
         Pqc.Registry.sphincs_variants)
  in
  (* failed variants drop out of the ranking and are marked below it *)
  let rows, failed =
    List.partition_map Fun.id
      (List.map2
         (fun (v : Pqc.Sigalg.t) r ->
           match r with
           | Ok o ->
             let total =
               Stats.median
                 (List.map
                    (fun s -> s.Experiment.total_ms)
                    o.Experiment.samples)
             in
             Either.Left
               (v.Pqc.Sigalg.name, total, v.Pqc.Sigalg.signature_bytes)
           | Error _ -> Either.Right v.Pqc.Sigalg.name)
         Pqc.Registry.sphincs_variants results)
  in
  let sorted = List.sort (fun (_, a, _) (_, b, _) -> Float.compare a b) rows in
  let b = Buffer.create 1024 in
  Buffer.add_string b
    "SPHINCS+ variant selection (x25519 KA), fastest first:\n";
  List.iter
    (fun (n, t, sig_b) ->
      Buffer.add_string b
        (Printf.sprintf "  %-14s %9.2f ms   sig %6d B\n" n t sig_b))
    sorted;
  List.iter
    (fun n ->
      Buffer.add_string b
        (Printf.sprintf "  %-14s %9s ms   (cell failed)\n" n Tablefmt.em_dash))
    failed;
  (match sorted with
  | (best, _, _) :: _ ->
    Buffer.add_string b
      (Printf.sprintf
         "fastest: %s -- the f(ast) simple profile, matching the paper's pick\n"
         best)
  | [] -> ());
  Buffer.contents b

let entries :
    (string * string * (?seed:string -> ?exec:Exec.t -> unit -> string)) list =
  [ ("all-kem", "Table 2a campaign: every KA with rsa:2048",
     fun ?seed ?exec () -> Report.table2a ?seed ?exec ());
    ("all-sig", "Table 2b campaign: every SA with x25519",
     fun ?seed ?exec () -> Report.table2b ?seed ?exec ());
    ("figure3", "Figure 3: KA/SA independence, levels 1-2/3/5, both \
                 bufferings and the optimized-vs-default improvement",
     fun ?seed ?exec () -> Report.figure3 ?seed ?exec ());
    ("table3", "Table 3: white-box CPU shares per library",
     fun ?seed ?exec () -> Report.table3 ?seed ?exec ());
    ("figure4", "Figure 4: log-scaled ranking of KAs and SAs from Table 2",
     fun ?seed ?exec () -> Report.figure4 ?seed ?exec ());
    ("level1", "Figure 3 campaign, level 1-2, optimized buffering",
     fun ?seed ?exec () ->
       level_report ?seed ?exec ~buffering:Tls.Config.Optimized_push 1);
    ("level3", "Figure 3 campaign, level 3, optimized buffering",
     fun ?seed ?exec () ->
       level_report ?seed ?exec ~buffering:Tls.Config.Optimized_push 3);
    ("level5", "Figure 3 campaign, level 5, optimized buffering",
     fun ?seed ?exec () ->
       level_report ?seed ?exec ~buffering:Tls.Config.Optimized_push 5);
    ("level1-nopush", "Figure 3 campaign, level 1-2, default buffering",
     fun ?seed ?exec () ->
       level_report ?seed ?exec ~buffering:Tls.Config.Default_buffered 1);
    ("level3-nopush", "Figure 3 campaign, level 3, default buffering",
     fun ?seed ?exec () ->
       level_report ?seed ?exec ~buffering:Tls.Config.Default_buffered 3);
    ("level5-nopush", "Figure 3 campaign, level 5, default buffering",
     fun ?seed ?exec () ->
       level_report ?seed ?exec ~buffering:Tls.Config.Default_buffered 5);
    ("level1-perf", "Table 3 rows on level 1-2",
     fun ?seed ?exec () -> perf_report ?seed ?exec 1);
    ("level3-perf", "Table 3 rows on level 3",
     fun ?seed ?exec () -> perf_report ?seed ?exec 3);
    ("level5-perf", "Table 3 rows on level 5",
     fun ?seed ?exec () -> perf_report ?seed ?exec 5);
    ("all-kem-scenarios", "Table 4a campaign: KAs under netem scenarios",
     fun ?seed ?exec () -> Report.table4a ?seed ?exec ());
    ("all-sig-scenarios", "Table 4b campaign: SAs under netem scenarios",
     fun ?seed ?exec () -> Report.table4b ?seed ?exec ());
    ("all-sphincs", "SPHINCS+ variant selection (Appendix B.6)",
     fun ?seed ?exec () -> all_sphincs_report ?seed ?exec ());
    ("attack", "Section 5.5 asymmetry survey",
     fun ?seed ?exec () -> Report.attack ?seed ?exec ());
    ("farm", "Table 5 campaign: server-farm capacity, tail latency and \
              adversarial mix",
     fun ?seed ?exec () -> Report.table5 ?seed ?exec ());
    ("farm-smoke", "Table 5 campaign at CI smoke size",
     fun ?seed ?exec () -> Report.table5_smoke ?seed ?exec ());
    ("mixes", "Table 6 campaign: steady-state cost under PSK-resumption \
               and 0-RTT workload mixes",
     fun ?seed ?exec () -> Report.table6 ?seed ?exec ());
    ("mixes-smoke", "Table 6 campaign at CI smoke size",
     fun ?seed ?exec () -> Report.table6_smoke ?seed ?exec ());
    ("chains", "Table 7 campaign: signature placement across certificate \
                hierarchies (chain profiles, flights-to-deliver)",
     fun ?seed ?exec () -> Report.table7 ?seed ?exec ());
    ("chains-smoke", "Table 7 campaign at CI smoke size",
     fun ?seed ?exec () -> Report.table7_smoke ?seed ?exec ());
    ("ablation-buffer", "BIO buffer-limit sweep",
     fun ?seed ?exec () -> Report.ablation_buffer ?seed ?exec ());
    ("ablation-cwnd", "initial congestion-window sweep",
     fun ?seed ?exec () -> Report.ablation_cwnd ?seed ?exec ());
    ("ablation-hrr", "HelloRetryRequest (wrong key-share) fallback cost",
     fun ?seed ?exec () -> Report.ablation_hrr ?seed ?exec ()) ]

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

let run ?seed ?exec name =
  let _, _, f = find name in
  f ?seed ?exec ()

let describe name =
  let _, d, _ = find name in
  d
