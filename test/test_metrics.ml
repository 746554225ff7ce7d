(* The observability layer: distribution statistics, the JSON codec,
   byte-identical metrics artifacts across [--jobs] and cache states,
   and the drift gates (artifact diff + against-paper). *)

open Core

let kem = Pqc.Registry.find_kem
let sa = Pqc.Registry.find_sig

(* ---- Stats helpers --------------------------------------------------------- *)

let test_stats_stddev () =
  Alcotest.(check (float 1e-9)) "known stddev" 1.
    (Stats.stddev [ 1.; 2.; 3. ]);
  Alcotest.(check (float 1e-9)) "constant data" 0. (Stats.stddev [ 5.; 5.; 5. ]);
  Alcotest.(check (float 1e-9)) "singleton" 0. (Stats.stddev [ 42. ]);
  Alcotest.check_raises "empty" (Invalid_argument "Stats.stddev: empty")
    (fun () -> ignore (Stats.stddev []))

(* the definition Stats implements on float arrays: sort the list, then
   interpolate linearly between the two nearest ranks *)
let list_percentile p xs =
  let a = Array.of_list (List.sort Float.compare xs) in
  let pos = p *. float_of_int (Array.length a - 1) in
  let lo = int_of_float pos in
  let hi = min (Array.length a - 1) (lo + 1) in
  a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let test_stats_percentiles () =
  let xs = [ 9.; 1.; 4.; 7.; 2.; 8.; 3.; 6.; 5.; 10. ] in
  let ps = [ 0.; 0.05; 0.25; 0.5; 0.75; 0.95; 0.99; 1. ] in
  (* the batched form must agree with the existing one-at-a-time
     percentile on every p — the tables keep rendering byte-identically *)
  List.iter2
    (fun p batched ->
      Alcotest.(check (float 1e-12))
        (Printf.sprintf "p%g agrees" (100. *. p))
        (Stats.percentile p xs) batched)
    ps
    (Stats.percentiles ps xs);
  (* the in-place heapsort agrees with List.sort, duplicates included *)
  List.iter
    (fun n ->
      let ys = List.init n (fun i -> float_of_int (i * 7919 mod 23) /. 3.) in
      List.iter2
        (fun p got ->
          Alcotest.(check (float 0.))
            (Printf.sprintf "n=%d p%g = list definition" n (100. *. p))
            (list_percentile p ys) got)
        ps (Stats.percentiles ps ys))
    [ 1; 2; 3; 24; 257 ];
  Alcotest.check_raises "empty" (Invalid_argument "Stats.percentiles: empty")
    (fun () -> ignore (Stats.percentiles [ 0.5 ] []))

let test_stats_bootstrap_ci () =
  let xs = List.init 50 (fun i -> float_of_int (i mod 13)) in
  let lo, hi = Stats.bootstrap_ci ~seed:"t" 0.5 xs in
  let lo', hi' = Stats.bootstrap_ci ~seed:"t" 0.5 xs in
  Alcotest.(check (pair (float 0.) (float 0.))) "deterministic" (lo, hi)
    (lo', hi');
  (* medians of discrete data can coincide across seeds; an interpolated
     percentile of distinct values almost never does, so that's where
     reseeding must show *)
  let ys = List.init 50 (fun i -> float_of_int (i * 37 mod 101) /. 7.) in
  let mlo, mhi = Stats.bootstrap_ci ~seed:"t" 0.37 ys in
  let mlo2, mhi2 = Stats.bootstrap_ci ~seed:"other" 0.37 ys in
  Alcotest.(check bool) "seed-sensitive" true (mlo <> mlo2 || mhi <> mhi2);
  (* the in-place array resampling is exactly the list definition: the
     same draws in the same order, the same interpolated percentiles *)
  let reference p xs =
    let a = Array.of_list xs and n = List.length xs in
    let rng = Crypto.Drbg.create ~seed:"stats-bootstrap/t" in
    let stats =
      List.init 200 (fun _ ->
          list_percentile p
            (List.init n (fun _ -> a.(Crypto.Drbg.uniform rng n))))
    in
    let alpha = (1. -. 0.95) /. 2. in
    (list_percentile alpha stats, list_percentile (1. -. alpha) stats)
  in
  List.iter
    (fun (p, data) ->
      Alcotest.(check (pair (float 0.) (float 0.)))
        (Printf.sprintf "p%g = list definition" (100. *. p))
        (reference p data)
        (Stats.bootstrap_ci ~seed:"t" p data))
    [ (0.5, xs); (0.5, ys); (0.99, ys); (0.37, List.filteri (fun i _ -> i < 7) ys) ];
  Alcotest.(check bool) "ordered interval" true (lo <= hi);
  let mn, mx = Stats.min_max xs in
  Alcotest.(check bool) "inside the data range" true (lo >= mn && hi <= mx);
  Alcotest.(check (pair (float 1e-9) (float 1e-9))) "singleton collapses"
    (3., 3.)
    (Stats.bootstrap_ci ~seed:"t" 0.5 [ 3. ]);
  Alcotest.check_raises "empty" (Invalid_argument "Stats.bootstrap_ci: empty")
    (fun () -> ignore (Stats.bootstrap_ci ~seed:"t" 0.5 []))

(* ---- the JSON codec --------------------------------------------------------- *)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [ ("int", Json.Int 42);
        ("neg", Json.Int (-7));
        ("float", Json.Float 0.1);
        ("tiny", Json.Float 1e-300);
        ("nan", Json.Float nan);
        ("inf", Json.Float infinity);
        ("s", Json.String "quote \" backslash \\ newline \n tab \t");
        ("list", Json.List [ Json.Bool true; Json.Bool false; Json.Null ]);
        ("empty_obj", Json.Obj []);
        ("empty_list", Json.List []) ]
  in
  let s = Json.to_string v in
  let reparsed =
    match Json.parse s with Ok j -> j | Error e -> Alcotest.fail e
  in
  (* non-finite floats serialize as null, so compare the printed forms:
     printing is deterministic and null re-prints as null *)
  Alcotest.(check string) "print/parse/print fixpoint" s
    (Json.to_string reparsed);
  (match Json.member "nan" reparsed with
  | Some Json.Null -> ()
  | _ -> Alcotest.fail "nan must serialize as null");
  Alcotest.(check (option (float 1e-12))) "null reads back as nan-ish"
    (Some nan)
    (Json.to_float (Json.member "nan" reparsed) |> function
     | Some f when Float.is_nan f -> Some nan
     | other -> other);
  List.iter
    (fun f ->
      Alcotest.(check (float 0.)) "float_repr round-trips" f
        (float_of_string (Json.float_repr f)))
    [ 0.1; 1. /. 3.; 1e-300; 6.02214076e23; 2.; -0.25 ];
  List.iter
    (fun bad ->
      match Json.parse bad with
      | Ok _ -> Alcotest.fail ("accepted malformed input: " ^ bad)
      | Error _ -> ())
    [ "{"; "[1,]"; "nul"; "\"unterminated"; "{} trailing"; "" ]

(* ---- artifact determinism --------------------------------------------------- *)

let grid seed =
  List.map
    (fun (k, s) -> Experiment.spec ~seed (kem k) (sa s))
    [ ("x25519", "rsa:2048"); ("kyber512", "dilithium2");
      ("p256", "rsa:2048"); ("kyber768", "dilithium3") ]

let artifact_string ~jobs ~seed =
  let exec = Exec.create ~jobs () in
  let results = Exec.cells exec (grid seed) in
  Alcotest.(check int) "all cells ok" (List.length (grid seed))
    (List.length (List.filter Result.is_ok results));
  Metrics.to_json_string (Metrics.artifact exec.Exec.metrics ~seed)

let parse_artifact s =
  match Metrics.of_json_string s with
  | Ok a -> a
  | Error e -> Alcotest.fail e

let test_artifact_jobs_identity () =
  let a1 = artifact_string ~jobs:1 ~seed:"metrics-jobs" in
  let a4 = artifact_string ~jobs:4 ~seed:"metrics-jobs" in
  Alcotest.(check string) "jobs=1 and jobs=4 byte-identical" a1 a4;
  let p = parse_artifact a1 in
  Alcotest.(check int) "four cells" 4 (List.length p.Metrics.p_cells);
  Alcotest.(check (list string)) "self-diff is clean" []
    (Metrics.diff p (parse_artifact a4));
  let first = List.hd p.Metrics.p_cells in
  Alcotest.(check string) "spec order preserved" "x25519 x rsa:2048 @ none"
    first.Metrics.p_key;
  Alcotest.(check bool) "standard cell" true first.Metrics.p_standard;
  Alcotest.(check bool) "distributions present" true
    (List.mem_assoc "data.latency_ms.total.p50" first.Metrics.p_metrics
    && List.mem_assoc "data.wire.server_bytes.p50" first.Metrics.p_metrics
    && List.mem_assoc "data.cpu.client_ms" first.Metrics.p_metrics)

let test_artifact_cache_identity () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "pqtls-metrics-test-%d-%.0f" (Unix.getpid ())
         (Clock.now_s () *. 1e6))
  in
  let seed = "metrics-cache" in
  let run () =
    let exec = Exec.create ~jobs:2 ~cache_dir:dir () in
    ignore (Exec.cells exec (grid seed));
    ( Metrics.to_json_string (Metrics.artifact exec.Exec.metrics ~seed),
      Metrics.counter exec.Exec.metrics "cells_executed",
      Metrics.counter exec.Exec.metrics "cells_from_cache" )
  in
  let cold, cold_fresh, cold_hits = run () in
  let warm, warm_fresh, warm_hits = run () in
  Alcotest.(check string) "cached re-run byte-identical" cold warm;
  Alcotest.(check (pair int int)) "cold telemetry" (4, 0)
    (cold_fresh, cold_hits);
  Alcotest.(check (pair int int)) "warm telemetry" (0, 4)
    (warm_fresh, warm_hits)

let test_registry_and_health () =
  let exec = Exec.create ~jobs:2 () in
  ignore (Exec.cells exec (grid "metrics-health"));
  Alcotest.(check int) "executed counter" 4
    (Metrics.counter exec.Exec.metrics "cells_executed");
  Alcotest.(check int) "wall observations, one per cell" 4
    (List.length (Metrics.observations exec.Exec.metrics "cell_wall_s"));
  let summary = Exec.health_summary exec in
  let contains needle =
    let n = String.length needle and h = String.length summary in
    let rec go i = i + n <= h && (String.sub summary i n = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("summary mentions " ^ needle) true
        (contains needle))
    [ "campaign health:"; "4 cells ok"; "0 failed"; "4 fresh"; "0 cached";
      "cell wall" ];
  (* the generic registry faces user code too *)
  Metrics.set_gauge exec.Exec.metrics "g" 2.5;
  Alcotest.(check (option (float 0.))) "gauge" (Some 2.5)
    (Metrics.gauge exec.Exec.metrics "g");
  Metrics.incr ~by:3 exec.Exec.metrics "c";
  Metrics.incr exec.Exec.metrics "c";
  Alcotest.(check int) "counter" 4 (Metrics.counter exec.Exec.metrics "c")

let test_cell_identity_rules () =
  let m = Metrics.create () in
  let sp = Experiment.spec ~seed:"id" (kem "x25519") (sa "rsa:2048") in
  let o = Experiment.run_spec sp in
  Metrics.record_cell m sp (Ok o);
  Metrics.record_cell m sp (Ok o);
  Alcotest.(check int) "same fingerprint records once" 1 (Metrics.cell_count m);
  (* same label, different knob: both recorded, keys disambiguated *)
  let sp2 = Experiment.spec ~seed:"id" ~buffer_limit:8192 (kem "x25519") (sa "rsa:2048") in
  Metrics.record_cell m sp2 (Ok (Experiment.run_spec sp2));
  let a = Metrics.artifact m ~seed:"id" in
  Alcotest.(check (list string)) "deterministic #k suffix on label clash"
    [ "x25519 x rsa:2048 @ none"; "x25519 x rsa:2048 @ none#2" ]
    (List.map (fun c -> c.Metrics.m_key) a.Metrics.a_cells);
  (match (List.nth a.Metrics.a_cells 1).Metrics.m_data with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "non-default knob is not standard" false
    (List.nth a.Metrics.a_cells 1).Metrics.m_standard

(* ---- mix cells (Table 6) ----------------------------------------------------- *)

let mix_grid seed =
  List.map
    (fun m ->
      Experiment.spec ~seed ~max_samples:10 ~mix:m (kem "kyber768")
        (sa "dilithium3"))
    [ Mix.full; Mix.find "resumed90"; Mix.find "resumed90-0rtt" ]

let mix_artifact_string ~jobs ~seed =
  let exec = Exec.create ~jobs () in
  let results = Exec.cells exec (mix_grid seed) in
  Alcotest.(check int) "all cells ok" 3
    (List.length (List.filter Result.is_ok results));
  Metrics.to_json_string (Metrics.artifact exec.Exec.metrics ~seed)

let test_mix_cells_in_artifact () =
  (* the full mix is the identity: same fingerprint as a pre-mix spec,
     so historical cache entries and artifacts keep matching *)
  let sp = Experiment.spec ~seed:"mix-id" (kem "x25519") (sa "rsa:2048") in
  let sp_full =
    Experiment.spec ~seed:"mix-id" ~mix:Mix.full (kem "x25519") (sa "rsa:2048")
  in
  Alcotest.(check string) "full mix keeps the pre-mix fingerprint"
    (Experiment.spec_fingerprint sp)
    (Experiment.spec_fingerprint sp_full);
  let seed = "metrics-mix" in
  let a1 = mix_artifact_string ~jobs:1 ~seed in
  let a4 = mix_artifact_string ~jobs:4 ~seed in
  Alcotest.(check string) "jobs=1 and jobs=4 byte-identical" a1 a4;
  let p = parse_artifact a1 in
  Alcotest.(check int) "three cells" 3 (List.length p.Metrics.p_cells);
  Alcotest.(check (list string)) "self-diff is clean" []
    (Metrics.diff p (parse_artifact a4));
  let has c k = List.mem_assoc k c.Metrics.p_metrics in
  (match p.Metrics.p_cells with
  | [ full_cell; r90; r90_0rtt ] ->
    (* all three carry ~max_samples, so none is "standard"; what matters
       is that only the mixed cells grow the resumption block *)
    Alcotest.(check bool) "full cell has no resumption block" false
      (has full_cell "data.resumption.resumed_n");
    List.iter
      (fun (c : Metrics.p_cell) ->
        Alcotest.(check bool) (c.Metrics.p_key ^ " is not standard") false
          c.Metrics.p_standard;
        Alcotest.(check bool) (c.Metrics.p_key ^ " splits populations") true
          (has c "data.resumption.resumed_n"
          && has c "data.resumption.full_n"
          && has c "data.resumption.resumed_server_bytes.p50");
        let v k = List.assoc k c.Metrics.p_metrics in
        Alcotest.(check (float 0.)) "populations sum to the sample budget"
          10.
          (v "data.resumption.resumed_n" +. v "data.resumption.full_n");
        Alcotest.(check bool) "resumed server flight is cheaper" true
          (v "data.resumption.resumed_server_bytes.p50"
          < v "data.resumption.full_server_bytes.p50"))
      [ r90; r90_0rtt ];
    Alcotest.(check (float 0.)) "no 0-RTT without the 0-RTT mix" 0.
      (List.assoc "data.resumption.early_data_bytes" r90.Metrics.p_metrics);
    Alcotest.(check bool) "0-RTT mix accepts early data" true
      (List.assoc "data.resumption.early_data_bytes"
         r90_0rtt.Metrics.p_metrics
      > 0.)
  | _ -> Alcotest.fail "expected exactly the three mix cells")

(* ---- chain cells (Table 7) ---------------------------------------------------- *)

let chain_grid seed =
  List.map
    (fun p ->
      Experiment.spec ~seed ~max_samples:10 ~chain:p (kem "kyber768")
        (sa "dilithium3"))
    [ Tls.Chain_profile.default;
      Tls.Chain_profile.find "slhdsa-root";
      Tls.Chain_profile.find "mixed-acme" ]

let chain_artifact_string ~jobs ~seed =
  let exec = Exec.create ~jobs () in
  let results = Exec.cells exec (chain_grid seed) in
  Alcotest.(check int) "all cells ok" 3
    (List.length (List.filter Result.is_ok results));
  Metrics.to_json_string (Metrics.artifact exec.Exec.metrics ~seed)

let test_chain_cells_in_artifact () =
  (* the default profile is the identity: same fingerprint as a pre-chain
     spec, so historical cache entries and artifacts keep matching *)
  let sp = Experiment.spec ~seed:"chain-id" (kem "x25519") (sa "rsa:2048") in
  let sp_default =
    Experiment.spec ~seed:"chain-id" ~chain:Tls.Chain_profile.default
      (kem "x25519") (sa "rsa:2048")
  in
  Alcotest.(check string) "default profile keeps the pre-chain fingerprint"
    (Experiment.spec_fingerprint sp)
    (Experiment.spec_fingerprint sp_default);
  let seed = "metrics-chain" in
  let a1 = chain_artifact_string ~jobs:1 ~seed in
  let a4 = chain_artifact_string ~jobs:4 ~seed in
  Alcotest.(check string) "jobs=1 and jobs=4 byte-identical" a1 a4;
  let p = parse_artifact a1 in
  Alcotest.(check int) "three cells" 3 (List.length p.Metrics.p_cells);
  Alcotest.(check (list string)) "self-diff is clean" []
    (Metrics.diff p (parse_artifact a4));
  let has c k = List.mem_assoc k c.Metrics.p_metrics in
  match p.Metrics.p_cells with
  | [ default_cell; slhdsa; mixed ] ->
    (* only the non-default cells grow the chain block *)
    Alcotest.(check bool) "default cell has no chain block" false
      (has default_cell "data.chain.wire_bytes");
    List.iter
      (fun (c : Metrics.p_cell) ->
        Alcotest.(check bool) (c.Metrics.p_key ^ " is not standard") false
          c.Metrics.p_standard;
        Alcotest.(check bool) (c.Metrics.p_key ^ " carries chain totals") true
          (has c "data.chain.wire_bytes" && has c "data.chain.verify_ms"))
      [ slhdsa; mixed ];
    let v c k = List.assoc k c.Metrics.p_metrics in
    (* mixed-acme is one level deeper than slhdsa-root: strictly more
       certificate bytes must cross the wire *)
    Alcotest.(check bool) "deeper chain costs more wire" true
      (v mixed "data.chain.wire_bytes" > v slhdsa "data.chain.wire_bytes")
  | _ -> Alcotest.fail "expected exactly the three chain cells"

(* ---- drift detection --------------------------------------------------------- *)

let perturb ~cell_key ~metric ~factor (a : Metrics.p_artifact) =
  { a with
    Metrics.p_cells =
      List.map
        (fun (c : Metrics.p_cell) ->
          if c.Metrics.p_key <> cell_key then c
          else
            { c with
              Metrics.p_metrics =
                List.map
                  (fun (k, v) -> if k = metric then (k, v *. factor) else (k, v))
                  c.Metrics.p_metrics })
        a.Metrics.p_cells }

let test_diff_catches_drift () =
  let s = artifact_string ~jobs:2 ~seed:"metrics-drift" in
  let base = parse_artifact s in
  let key = "kyber512 x dilithium2 @ none" in
  let metric = "data.latency_ms.total.p50" in
  let bad = perturb ~cell_key:key ~metric ~factor:1.07 base in
  (match Metrics.diff base bad with
  | [ issue ] ->
    let has needle =
      let n = String.length needle and h = String.length issue in
      let rec go i = i + n <= h && (String.sub issue i n = needle || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) "issue names the cell" true (has key);
    Alcotest.(check bool) "issue names the metric" true (has metric)
  | issues ->
    Alcotest.failf "expected exactly one issue, got %d" (List.length issues));
  Alcotest.(check int) "rel-tol forgives small drift" 0
    (List.length (Metrics.diff ~rel_tol:0.10 base bad));
  (* a missing cell is drift too *)
  let truncated =
    { base with
      Metrics.p_cells =
        List.filter
          (fun (c : Metrics.p_cell) -> c.Metrics.p_key <> key)
          base.Metrics.p_cells }
  in
  Alcotest.(check bool) "missing cell reported" true
    (Metrics.diff base truncated <> []);
  Alcotest.(check bool) "extra cell reported" true
    (Metrics.diff truncated base <> [])

let test_failed_cells_in_artifact () =
  let seed = "metrics-fail" in
  let sp = [ Experiment.spec ~seed (kem "x25519") (sa "rsa:2048") ] in
  let ok_exec = Exec.create ~jobs:1 () in
  ignore (Exec.cells ok_exec sp);
  let bad_exec = Exec.create ~jobs:1 ~retries:0 ~fail_cell:"x25519" () in
  ignore (Exec.cells bad_exec sp);
  let ok_a =
    parse_artifact (Metrics.to_json_string (Metrics.artifact ok_exec.Exec.metrics ~seed))
  in
  let bad_a =
    parse_artifact (Metrics.to_json_string (Metrics.artifact bad_exec.Exec.metrics ~seed))
  in
  (match (List.hd bad_a.Metrics.p_cells).Metrics.p_error with
  | Some _ -> ()
  | None -> Alcotest.fail "failed cell must carry its error");
  Alcotest.(check bool) "ok vs failed flip is drift" true
    (Metrics.diff ok_a bad_a <> []);
  Alcotest.(check (list string)) "failed vs failed agrees" []
    (Metrics.diff bad_a bad_a)

let test_against_paper_gate () =
  let seed = "metrics-paper" in
  let exec = Exec.create ~jobs:1 () in
  ignore (Exec.cells exec [ Experiment.spec ~seed (kem "x25519") (sa "rsa:2048") ]);
  let a =
    parse_artifact (Metrics.to_json_string (Metrics.artifact exec.Exec.metrics ~seed))
  in
  let checked, issues = Metrics.against_paper a in
  Alcotest.(check (list string)) "baseline cell tracks the paper" [] issues;
  (* 5 Table-2a comparisons + 2 Table-2b ones for the shared row *)
  Alcotest.(check int) "all paper comparisons ran" 7 checked;
  let drifted =
    perturb ~cell_key:"x25519 x rsa:2048 @ none"
      ~metric:"data.latency_ms.part_b.p50" ~factor:2.0 a
  in
  let _, issues = Metrics.against_paper drifted in
  Alcotest.(check bool) "2x part B drift is flagged" true (issues <> []);
  List.iter
    (fun i ->
      let has needle =
        let n = String.length needle and h = String.length i in
        let rec go j = j + n <= h && (String.sub i j n = needle || go (j + 1)) in
        go 0
      in
      Alcotest.(check bool) "issue names the cell" true (has "x25519"))
    issues

let test_schema_version_guard () =
  (match Metrics.of_json_string "{\"schema\": \"pqtls-bench-metrics/99\"}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "future schema must be rejected");
  match Metrics.of_json_string "not json at all" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage must be rejected"

let suites =
  [ ( "metrics",
      [ Alcotest.test_case "stats: stddev" `Quick test_stats_stddev;
        Alcotest.test_case "stats: batched percentiles" `Quick
          test_stats_percentiles;
        Alcotest.test_case "stats: deterministic bootstrap CI" `Quick
          test_stats_bootstrap_ci;
        Alcotest.test_case "json: round-trip" `Quick test_json_roundtrip;
        Alcotest.test_case "artifact: --jobs byte-identity" `Slow
          test_artifact_jobs_identity;
        Alcotest.test_case "artifact: cache byte-identity + telemetry" `Slow
          test_artifact_cache_identity;
        Alcotest.test_case "registry + health summary" `Slow
          test_registry_and_health;
        Alcotest.test_case "cell identity: dedup + label clash" `Slow
          test_cell_identity_rules;
        Alcotest.test_case "mix cells: identity, split, byte-identity" `Slow
          test_mix_cells_in_artifact;
        Alcotest.test_case "chain cells: identity, totals, byte-identity" `Slow
          test_chain_cells_in_artifact;
        Alcotest.test_case "diff: drift, tolerance, missing cells" `Slow
          test_diff_catches_drift;
        Alcotest.test_case "failed cells serialize and diff" `Quick
          test_failed_cells_in_artifact;
        Alcotest.test_case "against-paper gate" `Slow test_against_paper_gate;
        Alcotest.test_case "schema version guard" `Quick
          test_schema_version_guard ] ) ]
