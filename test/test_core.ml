(* The measurement framework, and — most importantly — the reproduction
   assertions: the paper's headline findings must emerge from the
   simulator, and the calibrated medians must track Table 2. *)

open Core

let kem = Pqc.Registry.find_kem
let sa = Pqc.Registry.find_sig

let run ?buffering ?scenario ?max_samples k s =
  Experiment.run_spec
    (Experiment.spec ?buffering ?scenario ?max_samples ~seed:"test" (kem k)
       (sa s))

(* medians straight from the samples: the reference a cell's summary
   ([Metrics.cell_data]) is checked against *)
let median f o = Stats.median (List.map f o.Experiment.samples)
let part_a o = median (fun s -> s.Experiment.part_a_ms) o
let part_b o = median (fun s -> s.Experiment.part_b_ms) o
let total o = median (fun s -> s.Experiment.total_ms) o
let bytes f o = int_of_float (median (fun s -> float_of_int (f s)) o)
let cbytes o = bytes (fun s -> s.Experiment.client_bytes) o
let sbytes o = bytes (fun s -> s.Experiment.server_bytes) o

(* ---- stats ------------------------------------------------------------------ *)

let test_stats () =
  Alcotest.(check (float 1e-9)) "median odd" 2. (Stats.median [ 3.; 1.; 2. ]);
  Alcotest.(check (float 1e-9)) "median even" 1.5 (Stats.median [ 1.; 2. ]);
  Alcotest.(check (float 1e-9)) "p0" 1. (Stats.percentile 0. [ 3.; 1.; 2. ]);
  Alcotest.(check (float 1e-9)) "p100" 3. (Stats.percentile 1. [ 3.; 1.; 2. ]);
  Alcotest.(check (float 1e-9)) "mean" 2. (Stats.mean [ 1.; 2.; 3. ]);
  Alcotest.(check (pair (float 1e-9) (float 1e-9))) "min_max" (1., 3.)
    (Stats.min_max [ 2.; 1.; 3. ]);
  Alcotest.check_raises "empty median" (Invalid_argument "Stats.percentile: empty")
    (fun () -> ignore (Stats.median []))

(* ---- experiment mechanics ------------------------------------------------------ *)

let test_determinism () =
  let a = run "kyber512" "dilithium2" and b = run "kyber512" "dilithium2" in
  Alcotest.(check bool) "identical sample lists" true
    (a.Experiment.samples = b.Experiment.samples);
  Alcotest.(check int) "identical counts" a.Experiment.handshakes_per_minute
    b.Experiment.handshakes_per_minute

let test_loss_free_runs_are_stable () =
  let o = run "x25519" "rsa:2048" in
  let totals = List.map (fun s -> s.Experiment.total_ms) o.Experiment.samples in
  let lo, hi = Stats.min_max totals in
  Alcotest.(check bool) "no-loss samples are near-identical" true (hi -. lo < 0.05)

let test_ledgers () =
  let o = run "x25519" "rsa:2048" in
  let sum l = List.fold_left (fun acc (_, f) -> acc +. f) 0. l in
  Alcotest.(check (float 1e-6)) "client ledger normalized" 1.0
    (sum o.Experiment.client_ledger);
  Alcotest.(check (float 1e-6)) "server ledger normalized" 1.0
    (sum o.Experiment.server_ledger);
  Alcotest.(check bool) "server cpu > client cpu for RSA" true
    (o.Experiment.server_cpu_ms > o.Experiment.client_cpu_ms)

(* every median a report prints is its cell summary's p50: the same
   interpolation over the same samples, so it equals the sample median
   to the bit, on a loss-free and on a lossy cell *)
let test_summary_medians () =
  let specs =
    [ Experiment.spec ~seed:"test" (kem "kyber512") (sa "dilithium2");
      Experiment.spec ~seed:"test" ~scenario:Scenario.five_g ~max_samples:30
        (kem "x25519") (sa "sphincs128") ]
  in
  List.iter2
    (fun sp r ->
      let o = Experiment.run_spec sp in
      let name what = Experiment.spec_label sp ^ ": " ^ what in
      match r with
      | Error e -> Alcotest.fail e
      | Ok (d : Metrics.cell_data) ->
        let check what expected p50 =
          Alcotest.(check (float 0.)) (name what) expected p50
        in
        check "part A" (part_a o) d.cd_part_a.d_p50;
        check "part B" (part_b o) d.cd_part_b.d_p50;
        check "total" (total o) d.cd_total.d_p50;
        Alcotest.(check int) (name "client bytes") (cbytes o)
          (int_of_float d.cd_client_bytes.d_p50);
        Alcotest.(check int) (name "server bytes") (sbytes o)
          (int_of_float d.cd_server_bytes.d_p50))
    specs
    (Exec.cells (Exec.create ~jobs:1 ()) specs)

(* ---- calibration against Table 2 ------------------------------------------------ *)

let within ~tol ~name paper sim =
  let rel = Float.abs (sim -. paper) /. Float.max paper 0.05 in
  Alcotest.(check bool)
    (Printf.sprintf "%s: sim %.2f vs paper %.2f (tol %.0f%%)" name sim paper
       (100. *. tol))
    true (rel <= tol)

let test_table2a_calibration () =
  List.iter
    (fun (row : Paper_data.t2_row) ->
      let o = run row.Paper_data.alg "rsa:2048" in
      within ~tol:0.30 ~name:(row.Paper_data.alg ^ " partA") row.Paper_data.part_a
        (part_a o);
      within ~tol:0.30 ~name:(row.Paper_data.alg ^ " partB") row.Paper_data.part_b
        (part_b o);
      within ~tol:0.10
        ~name:(row.Paper_data.alg ^ " client bytes")
        (float_of_int row.Paper_data.client_b)
        (float_of_int (cbytes o));
      within ~tol:0.10
        ~name:(row.Paper_data.alg ^ " server bytes")
        (float_of_int row.Paper_data.server_b)
        (float_of_int (sbytes o));
      within ~tol:0.30
        ~name:(row.Paper_data.alg ^ " handshake count")
        (row.Paper_data.total_k *. 1000.)
        (float_of_int o.Experiment.handshakes_per_minute))
    (* a representative subset keeps the test fast; the bench regenerates
       the full table *)
    (List.filter
       (fun (r : Paper_data.t2_row) ->
         List.mem r.Paper_data.alg
           [ "x25519"; "bikel1"; "hqc128"; "kyber512"; "p256"; "bikel3";
             "p384"; "hqc256"; "p521"; "p521_kyber1024" ])
       Paper_data.table2a)

let test_table2b_calibration () =
  List.iter
    (fun (row : Paper_data.t2_row) ->
      let o = run "x25519" row.Paper_data.alg in
      within ~tol:0.30 ~name:(row.Paper_data.alg ^ " partB") row.Paper_data.part_b
        (part_b o);
      within ~tol:0.25
        ~name:(row.Paper_data.alg ^ " server bytes")
        (float_of_int row.Paper_data.server_b)
        (float_of_int (sbytes o)))
    (List.filter
       (fun (r : Paper_data.t2_row) ->
         List.mem r.Paper_data.alg
           [ "rsa:1024"; "rsa:2048"; "rsa:4096"; "falcon512"; "dilithium2";
             "dilithium3"; "dilithium5"; "sphincs128"; "sphincs256";
             "falcon1024"; "p521_dilithium5" ])
       Paper_data.table2b)

(* ---- the paper's findings -------------------------------------------------------- *)

let test_finding_dilithium_faster_than_rsa2048 () =
  (* "Handshakes with Dilithium, regardless of the security level, were
     faster than our current state-of-the-art rsa:2048" *)
  let baseline = total (run "x25519" "rsa:2048") in
  List.iter
    (fun d ->
      Alcotest.(check bool) (d ^ " beats rsa:2048") true
        (total (run "x25519" d) < baseline))
    [ "dilithium2"; "dilithium3"; "dilithium5"; "dilithium2_aes";
      "dilithium3_aes"; "dilithium5_aes"; "falcon512" ]

let test_finding_kyber_on_par () =
  (* "HQC and Kyber are on par with our current state-of-the-art" *)
  let baseline = total (run "x25519" "rsa:2048") in
  List.iter
    (fun k ->
      let t = total (run k "rsa:2048") in
      Alcotest.(check bool) (k ^ " within 0.5 ms of x25519") true
        (Float.abs (t -. baseline) < 0.5))
    [ "kyber512"; "hqc128"; "kyber90s512" ]

let test_finding_pqc_wins_on_high_levels () =
  (* "on NIST security levels three to five, PQC outperforms all
     algorithms in use today" *)
  Alcotest.(check bool) "kyber768 beats p384" true
    (total (run "kyber768" "rsa:2048") < total (run "p384" "rsa:2048"));
  Alcotest.(check bool) "kyber1024 beats p521" true
    (total (run "kyber1024" "rsa:2048") < total (run "p521" "rsa:2048"));
  Alcotest.(check bool) "dilithium5 beats rsa:4096" true
    (total (run "x25519" "dilithium5") < total (run "x25519" "rsa:4096"))

let test_finding_hybrids_cheap_on_level1 () =
  (* "almost no overhead in using hybrid algorithms ... on level one" *)
  let pure = total (run "kyber512" "rsa:2048") in
  let hybrid = total (run "p256_kyber512" "rsa:2048") in
  Alcotest.(check bool) "hybrid within 0.6 ms" true (hybrid -. pure < 0.6);
  (* but the classical component bottlenecks hybrids on higher levels *)
  let pure5 = total (run "kyber1024" "rsa:2048") in
  let hybrid5 = total (run "p521_kyber1024" "rsa:2048") in
  Alcotest.(check bool) "p521 bottlenecks the level-5 hybrid" true
    (hybrid5 > pure5 +. 5.

)

let test_finding_sphincs_expensive () =
  (* "handshake latency and data usage were up to 20 times higher" *)
  let baseline = run "x25519" "rsa:2048" in
  let sp = run "x25519" "sphincs256" in
  Alcotest.(check bool) "sphincs 20x latency" true
    (total sp > 20. *. total baseline);
  Alcotest.(check bool) "sphincs data 20x" true
    (sbytes sp > 20 * sbytes baseline)

let test_finding_cwnd_extra_rtts () =
  (* section 5.4: large flights exceed the initial CWND and pay RTTs *)
  let delay = Scenario.high_delay in
  let t name = total (run ~scenario:delay "x25519" name) in
  Alcotest.(check bool) "rsa:2048 1 RTT" true (Float.abs (t "rsa:2048" -. 1000.) < 30.);
  Alcotest.(check bool) "dilithium5 2 RTT" true (Float.abs (t "dilithium5" -. 2000.) < 60.);
  Alcotest.(check bool) "sphincs128 2 RTT" true (Float.abs (t "sphincs128" -. 2000.) < 60.);
  Alcotest.(check bool) "sphincs192 3 RTT" true (Float.abs (t "sphincs192" -. 3000.) < 60.);
  Alcotest.(check bool) "sphincs256 4 RTT" true (Float.abs (t "sphincs256" -. 4000.) < 60.);
  (* and a larger initial window removes the extra round trips *)
  let big_window = { Netsim.Tcp.init_cwnd_segments = 80 } in
  let o =
    Experiment.run_spec
      (Experiment.spec ~seed:"test" ~scenario:delay ~tcp_config:big_window
         (kem "x25519") (sa "sphincs256"))
  in
  Alcotest.(check bool) "initcwnd 80 restores 1 RTT" true
    (Float.abs (total o -. 1000.) < 60.)

let test_finding_low_bandwidth_hurts_big_data () =
  let bw = Scenario.low_bandwidth in
  let x = total (run ~scenario:bw "x25519" "rsa:2048") in
  let h = total (run ~scenario:bw "hqc128" "rsa:2048") in
  let s = total (run ~scenario:bw "x25519" "sphincs128") in
  Alcotest.(check bool) "hqc >= 3x x25519 at 1 Mbit/s" true (h > 3. *. x);
  Alcotest.(check bool) "sphincs >= 15x x25519 at 1 Mbit/s" true (s > 15. *. x);
  (* "Kyber and Falcon surpass the other PQ algorithms in low-bandwidth
     settings due to shorter keys" *)
  let ky = total (run ~scenario:bw "kyber512" "rsa:2048") in
  Alcotest.(check bool) "kyber beats hqc at 1 Mbit/s" true (ky < h);
  let falcon = total (run ~scenario:bw "x25519" "falcon512") in
  let dil = total (run ~scenario:bw "x25519" "dilithium2") in
  Alcotest.(check bool) "falcon beats dilithium at 1 Mbit/s" true (falcon < dil)

let test_finding_delay_dominates_realistic () =
  (* "the two realistic scenarios mostly depended on the RTT" *)
  let o = run ~scenario:Scenario.five_g "x25519" "rsa:2048" in
  Alcotest.(check bool) "5G ~ RTT" true
    (total o > 44. && total o < 60.);
  let lte = run ~scenario:Scenario.lte_m "kyber512" "rsa:2048" in
  Alcotest.(check bool) "LTE-M ~ RTT + serialization" true
    (total lte > 200. && total lte < 320.)

let test_attack_asymmetries () =
  let survey =
    Amplification.survey ~seed:"test" ~exec:(Exec.create ~jobs:2 ()) ()
  in
  let measure s =
    List.find
      (fun r -> r.Amplification.kem = "x25519" && r.Amplification.sa = s)
      survey
  in
  let row = measure "sphincs256" in
  Alcotest.(check bool) "sphincs amplification huge" true
    (row.Amplification.amplification > 50.);
  Alcotest.(check bool) "exceeds QUIC limit" true
    (row.Amplification.amplification > Amplification.quic_limit);
  let base = measure "rsa:2048" in
  Alcotest.(check bool) "baseline modest" true (base.Amplification.amplification < 3.);
  let sp = run "kyber512" "sphincs128" in
  Alcotest.(check bool) "server-heavy CPU skew" true
    (sp.Experiment.server_cpu_ms /. sp.Experiment.client_cpu_ms > 3.)

let test_whitebox_shapes () =
  (* Table 3's qualitative observations *)
  let measure pair =
    match Whitebox.rows ~seed:"test" ~exec:(Exec.create ~jobs:1 ()) [ pair ] with
    | [ Some row ] -> row
    | _ -> Alcotest.fail "white-box cell failed"
  in
  let row = measure (1, "bikel1", "dilithium2") in
  let client_libssl = List.assoc_opt "libssl" row.Metrics.cd_client_ledger in
  let client_libcrypto =
    List.assoc_opt "libcrypto" row.Metrics.cd_client_ledger
  in
  Alcotest.(check bool) "bike client dominated by libssl" true
    (Option.value ~default:0. client_libssl
    > Option.value ~default:0. client_libcrypto);
  let sp = measure (1, "kyber512", "sphincs128") in
  Alcotest.(check bool) "sphincs server >90% libcrypto" true
    (Option.value ~default:0.
       (List.assoc_opt "libcrypto" sp.Metrics.cd_server_ledger)
    > 0.9);
  Alcotest.(check int) "eight paper pairs" 8 (List.length Whitebox.paper_pairs)

let test_deviation_analysis () =
  let g = Deviation.analyze ~seed:"test" ~exec:(Exec.create ~jobs:1 ()) 5 in
  Alcotest.(check int) "level-5 grid = 4 KAs x 4 SAs" 16
    (List.length g.Deviation.cells);
  (* the baseline combination predicts itself: deviations are bounded *)
  List.iter
    (fun (c : Deviation.cell) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s x %s deviation bounded" c.Deviation.kem c.Deviation.sa)
        true
        (Float.abs c.Deviation.deviation_ms < 12.))
    g.Deviation.cells;
  (* optimized push must not be slower overall than default buffering *)
  let d =
    Deviation.analyze ~seed:"test" ~exec:(Exec.create ~jobs:1 ())
      ~buffering:Tls.Config.Default_buffered 5
  in
  let gains = Deviation.improvement ~optimized:g ~default:d in
  Alcotest.(check int) "improvement covers the grid" 16 (List.length gains);
  let mean_gain = Stats.mean (List.map (fun (_, _, g) -> g) gains) in
  Alcotest.(check bool) "optimized faster on average" true (mean_gain > 0.)

let test_hrr_fallback () =
  (* a wrong key-share guess costs one extra round trip (section 2's
     2-RTT fallback) plus the deferred key generation *)
  let delay = Scenario.high_delay in
  let right = total (run ~scenario:delay "kyber768" "dilithium3") in
  let wrong =
    total
      (Experiment.run_spec
         (Experiment.spec ~seed:"test" ~scenario:delay ~wrong_key_share:true
            (kem "kyber768") (sa "dilithium3")))
  in
  Alcotest.(check bool) "HRR adds ~1 RTT" true
    (wrong -. right > 900. && wrong -. right < 1100.);
  (* on the fast link it still completes, with both hellos on the wire *)
  let o =
    Experiment.run_spec
      (Experiment.spec ~seed:"test" ~wrong_key_share:true (kem "x25519")
         (sa "rsa:2048"))
  in
  Alcotest.(check bool) "handshakes complete through HRR" true
    (List.length o.Experiment.samples > 0)

let test_ranking () =
  let entries =
    Ranking.rank [ ("a", 1.0); ("b", 10.0); ("c", 100.0); ("d", 1.01) ]
  in
  let find n = List.find (fun (e : Ranking.entry) -> e.Ranking.name = n) entries in
  Alcotest.(check int) "fastest rank 0" 0 (find "a").Ranking.rank;
  Alcotest.(check int) "slowest rank 10" 10 (find "c").Ranking.rank;
  Alcotest.(check int) "log scale midpoint" 5 (find "b").Ranking.rank;
  Alcotest.(check int) "near-fastest rounds to 0" 0 (find "d").Ranking.rank;
  Alcotest.(check bool) "sorted fastest first" true
    ((List.hd entries).Ranking.name = "a")

let test_scenarios_and_catalog () =
  Alcotest.(check int) "six scenarios" 6 (List.length Scenario.all);
  Alcotest.(check int) "twenty-seven experiments" 27 (List.length Catalog.names);
  List.iter (fun n -> ignore (Catalog.describe n)) Catalog.names;
  (* one cheap catalog entry end-to-end *)
  let report =
    Catalog.run ~seed:"test" ~exec:(Exec.create ~jobs:1 ()) "level5-perf"
  in
  let contains hay needle =
    let n = String.length needle in
    let rec go i = i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "perf report mentions kyber1024" true
    (contains report "kyber1024")

let suites =
  [ ( "core",
      [ Alcotest.test_case "stats" `Quick test_stats;
        Alcotest.test_case "experiment determinism" `Quick test_determinism;
        Alcotest.test_case "loss-free stability" `Quick test_loss_free_runs_are_stable;
        Alcotest.test_case "cpu ledgers" `Quick test_ledgers;
        Alcotest.test_case "Table 2a calibration" `Slow test_table2a_calibration;
        Alcotest.test_case "Table 2b calibration" `Slow test_table2b_calibration;
        Alcotest.test_case "finding: dilithium/falcon beat rsa2048" `Slow
          test_finding_dilithium_faster_than_rsa2048;
        Alcotest.test_case "finding: kyber/hqc on par" `Slow test_finding_kyber_on_par;
        Alcotest.test_case "finding: pqc wins on levels 3-5" `Slow
          test_finding_pqc_wins_on_high_levels;
        Alcotest.test_case "finding: hybrids cheap on level 1" `Slow
          test_finding_hybrids_cheap_on_level1;
        Alcotest.test_case "finding: sphincs expensive" `Slow
          test_finding_sphincs_expensive;
        Alcotest.test_case "finding: CWND extra RTTs" `Slow test_finding_cwnd_extra_rtts;
        Alcotest.test_case "finding: low bandwidth vs data volume" `Slow
          test_finding_low_bandwidth_hurts_big_data;
        Alcotest.test_case "finding: realistic scenarios track RTT" `Slow
          test_finding_delay_dominates_realistic;
        Alcotest.test_case "section 5.5 asymmetries" `Slow test_attack_asymmetries;
        Alcotest.test_case "Table 3 shapes" `Slow test_whitebox_shapes;
        Alcotest.test_case "Figure 3 deviation analysis" `Slow test_deviation_analysis;
        Alcotest.test_case "HRR fallback" `Slow test_hrr_fallback;
        Alcotest.test_case "Figure 4 ranking" `Quick test_ranking;
        Alcotest.test_case "scenarios + catalog" `Quick test_scenarios_and_catalog;
        Alcotest.test_case "summary medians = sample medians" `Quick
          test_summary_medians ] ) ]
