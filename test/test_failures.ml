(* Fault-tolerant campaign execution: a cell that keeps raising turns
   into [Error] with its attempt count recorded, the rest of the grid
   still completes (in spec order, identically for any job count),
   reports render with the failed cell marked, and the failure is never
   written to the result cache. *)

open Core

let kem = Pqc.Registry.find_kem
let sa = Pqc.Registry.find_sig

let contains needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* a deterministically failing cell: a zero sample budget means not a
   single handshake can complete, which run_spec reports by raising *)
let failing_spec seed =
  Experiment.spec ~seed ~max_samples:0 (kem "kyber512") (sa "dilithium2")

let good_spec seed = Experiment.spec ~seed (kem "x25519") (sa "rsa:2048")

let test_error_records_attempts () =
  let exec = Exec.create ~jobs:1 ~retries:2 () in
  match Exec.cell exec (failing_spec "failures-attempts") with
  | Ok _ -> Alcotest.fail "a zero-sample spec cannot succeed"
  | Error e ->
    Alcotest.(check int) "initial try plus two retries" 3 e.Exec.ce_attempts;
    Alcotest.(check bool) "message mentions the cell" true
      (String.length e.Exec.ce_message > 0);
    Alcotest.(check int) "counted as failed" 1 (Exec.failed_count exec);
    Alcotest.(check int) "not counted as ok" 0 (Exec.ok_count exec)

let test_lossy_underbudget_cell_fails () =
  (* a 10%-loss cell with a zero time budget: no handshake can finish,
     the engine gives up and the cell must surface as Error (with the
     retry recorded), not as a crash *)
  let spec =
    Experiment.spec ~seed:"failures-loss" ~scenario:Scenario.high_loss
      ~duration_s:0. ~max_samples:1
      (kem "kyber512") (sa "sphincs128")
  in
  match Exec.cell (Exec.create ~jobs:1 ~retries:1 ()) spec with
  | Error e -> Alcotest.(check int) "retried once" 2 e.Exec.ce_attempts
  | Ok _ -> Alcotest.fail "no handshake fits in zero virtual time"

let test_mixed_grid_order_and_determinism () =
  let specs =
    [ good_spec "failures-grid";
      failing_spec "failures-grid";
      Experiment.spec ~seed:"failures-grid" (kem "kyber768") (sa "dilithium3") ]
  in
  let run jobs = Exec.cells (Exec.create ~jobs ~retries:1 ()) specs in
  let r1 = run 1 and r4 = run 4 in
  let shape = function Ok _ -> `Ok | Error _ -> `Err in
  Alcotest.(check (list bool))
    "failure lands on the failing spec, order preserved"
    [ true; false; true ]
    (List.map (fun r -> shape r = `Ok) r1);
  let oks rs =
    List.filter_map (function Ok o -> Some o | Error _ -> None) rs
  in
  Alcotest.(check bool) "jobs=1 and jobs=4 bit-identical" true
    (String.equal
       (Marshal.to_string (oks r1) [])
       (Marshal.to_string (oks r4) []))

(* One injected failed cell per catalog entry, so every renderer shows
   ok rows and failed rows side by side. Each report's MD5 pins both
   row formats; the third element lists strings the report must show. *)
let failure_pins =
  let x25519_rsa = "x25519 x rsa:2048" in
  [ ("table3", x25519_rsa, [], "4c7c75e93b063d0768a1d4d71d3825ef");
    ("farm-smoke", x25519_rsa, [], "35189ba556bbcc057cfa3fcab34f0377");
    ("mixes-smoke", x25519_rsa, [], "b21566f005b5034a0cfeb1e174285099");
    ("chains-smoke", x25519_rsa, [], "cd88b6cc44786bb8c0439d410079c07c");
    ("all-kem", x25519_rsa, [], "755aff1ae3f90120d0dbf2319e2907e5");
    ("ablation-cwnd", x25519_rsa, [], "4b86abe8868cc9bd8ce8bb928627f938");
    ( "level5", "kyber1024 x dilithium5 @", [],
      "7e34b6591e7449657e1bd5a06c1ea707" );
    ( "level5-perf", "kyber1024 x dilithium5", [],
      "9ebecf00faab6adcf15f69a15e276833" );
    ( "all-sphincs", "sphincs128s",
      [ "(cell failed)"; "sphincs256f" ],
      "10b595b40a1bb61d2558429550846689" );
    ( "ablation-buffer", "(default-buffered)", [],
      "9fcf5e8347f2ceca0686bbc23af4abe5" );
    ( "ablation-hrr", "x25519 x rsa:2048 @ 5g", [],
      "b9e91b1969b9f0eb7f466cf819b3cdba" ) ]

let test_injected_failure_renders_partial_report () =
  List.iter
    (fun (entry, fail_cell, must_show, md5) ->
      let exec = Exec.create ~jobs:2 ~fail_cell () in
      let report = Catalog.run ~seed:"failures-report" ~exec entry in
      Alcotest.(check string) (entry ^ " report") md5
        (Digest.to_hex (Digest.string report));
      Alcotest.(check bool) (entry ^ ": em dash rendered") true
        (contains "\xe2\x80\x94" report);
      List.iter
        (fun text ->
          Alcotest.(check bool) (entry ^ " shows " ^ text) true
            (contains text report))
        must_show;
      Alcotest.(check bool) (entry ^ ": campaign counted the failure") true
        (Exec.failed_count exec > 0))
    failure_pins

let temp_cache_dir () =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "pqtls-failures-test-%d-%.0f" (Unix.getpid ())
       (Clock.now_s () *. 1e6))

let test_failures_are_not_cached () =
  let dir = temp_cache_dir () in
  let specs = [ good_spec "failures-cache"; failing_spec "failures-cache" ] in
  (* first run: one success (cached), one failure (must not be) *)
  let first = Exec.create ~jobs:1 ~cache_dir:dir ~retries:0 () in
  (match Exec.cells first specs with
  | [ Ok _; Error _ ] -> ()
  | _ -> Alcotest.fail "expected [Ok; Error] on the cold run");
  (* second run over the same directory: the success replays from disk,
     the failed cell is executed again — and fails again *)
  let second = Exec.create ~jobs:1 ~cache_dir:dir ~retries:0 () in
  (match Exec.cells second specs with
  | [ Ok _; Error _ ] -> ()
  | _ -> Alcotest.fail "expected [Ok; Error] on the warm run");
  let c = Option.get second.Exec.cache in
  Alcotest.(check int) "only the successful cell hit" 1 (Result_cache.hits c);
  Alcotest.(check int) "the failed cell re-executed" 1 (Result_cache.misses c)

let test_health_summary_counts () =
  let exec = Exec.create ~jobs:1 ~retries:0 () in
  (match Exec.cells exec [ good_spec "failures-health"; failing_spec "failures-health" ] with
  | [ Ok _; Error _ ] -> ()
  | _ -> Alcotest.fail "expected [Ok; Error]");
  Alcotest.(check int) "one ok" 1 (Exec.ok_count exec);
  Alcotest.(check int) "one failed" 1 (Exec.failed_count exec);
  Alcotest.(check int) "nothing retried" 0 (Exec.retried_count exec);
  let line = Exec.health_summary exec in
  Alcotest.(check bool) "summary lists ok and failed counts" true
    (contains "1 cells ok" line && contains "1 failed" line)

let suites =
  [ ( "failures",
      [ Alcotest.test_case "error records attempts" `Quick
          test_error_records_attempts;
        Alcotest.test_case "lossy under-budget cell fails cleanly" `Quick
          test_lossy_underbudget_cell_fails;
        Alcotest.test_case "mixed grid: order and determinism" `Slow
          test_mixed_grid_order_and_determinism;
        Alcotest.test_case "injected failure renders partial report" `Slow
          test_injected_failure_renders_partial_report;
        Alcotest.test_case "failures are not cached" `Quick
          test_failures_are_not_cached;
        Alcotest.test_case "health summary counts" `Quick
          test_health_summary_counts ] ) ]
