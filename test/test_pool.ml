(* The parallel campaign layer: the pool must be a drop-in List.map,
   the parallel runner must be bit-identical to the sequential one, and
   the result cache must serve re-runs without re-executing a single
   cell. *)

open Core

let kem = Pqc.Registry.find_kem
let sa = Pqc.Registry.find_sig

(* ---- pool mechanics -------------------------------------------------------- *)

let test_pool_matches_map () =
  let xs = List.init 50 Fun.id in
  (* uneven task sizes, so workers claim unequal shares of the cursor *)
  let f x =
    let acc = ref 0 in
    for i = 0 to (x mod 7) * 10_000 do
      acc := !acc + (i * x)
    done;
    (x * x) + (!acc * 0)
  in
  Alcotest.(check (list int))
    "jobs=4 equals List.map" (List.map f xs)
    (Pool.map ~jobs:4 f xs);
  Alcotest.(check (list int))
    "jobs=1 equals List.map" (List.map f xs)
    (Pool.map ~jobs:1 f xs);
  Alcotest.(check (list int))
    "more jobs than tasks" (List.map f [ 1; 2; 3 ])
    (Pool.map ~jobs:16 f [ 1; 2; 3 ]);
  Alcotest.(check (list int)) "empty input" [] (Pool.map ~jobs:4 f [])

let test_pool_on_done () =
  let seen = ref [] in
  let results =
    Pool.map ~jobs:4
      ~on_done:(fun ~completed:_ ~total x y ->
        Alcotest.(check int) "total" 10 total;
        Alcotest.(check int) "result matches input" (x + 1) y;
        seen := x :: !seen)
      (fun x -> x + 1)
      (List.init 10 Fun.id)
  in
  Alcotest.(check (list int)) "results ordered" (List.init 10 (fun i -> i + 1))
    results;
  Alcotest.(check (list int)) "every input reported once"
    (List.init 10 Fun.id) (List.sort compare !seen)

exception Boom

let test_pool_exception () =
  Alcotest.check_raises "worker exception propagates" Boom (fun () ->
      ignore
        (Pool.map ~jobs:4
           (fun x -> if x = 17 then raise Boom else x)
           (List.init 32 Fun.id)))

(* ---- parallel determinism -------------------------------------------------- *)

let subgrid seed =
  let kems = [ "x25519"; "kyber512"; "kyber768" ] in
  let sas = [ "rsa:2048"; "dilithium2"; "sphincs128" ] in
  List.concat_map
    (fun k -> List.map (fun s -> Experiment.spec ~seed (kem k) (sa s)) sas)
    kems

let marshal_bytes (cells : Metrics.cell_data list) =
  Marshal.to_string cells []

(* these grids are loss-free and must never fail a cell *)
let oks results =
  List.map
    (function
      | Ok o -> o
      | Error message -> Alcotest.fail ("unexpected cell failure: " ^ message))
    results

let test_parallel_bit_identical () =
  let specs = subgrid "pool-determinism" in
  let seq = oks (Exec.cells (Exec.create ~jobs:1 ()) specs) in
  let par = oks (Exec.cells (Exec.create ~jobs:4 ()) specs) in
  Alcotest.(check bool)
    "3x3 grid byte-identical across jobs=1/jobs=4" true
    (String.equal (marshal_bytes seq) (marshal_bytes par))

let test_catalog_report_bit_identical () =
  let seq =
    Catalog.run ~seed:"pool-report" ~exec:(Exec.create ~jobs:1 ())
      "all-sphincs"
  in
  let par =
    Catalog.run ~seed:"pool-report"
      ~exec:(Exec.create ~jobs:4 ()) "all-sphincs"
  in
  Alcotest.(check string) "rendered report identical" seq par

(* ---- one run per distinct cell ------------------------------------------- *)

let distinct_specs seed =
  List.map
    (fun (k, s) -> Experiment.spec ~seed ~max_samples:4 (kem k) (sa s))
    [ ("x25519", "rsa:2048"); ("kyber512", "dilithium2");
      ("kyber768", "dilithium3") ]

(* a context runs each fingerprint once, whether it repeats inside one
   grid or comes back in a later one; every repeat reads the first
   run's summary and adds no counter and no trace buffer *)
let test_distinct_cells_run_once () =
  match distinct_specs "pool-distinct" with
  | [ a; b; c ] ->
    List.iter
      (fun jobs ->
        let store = Trace.Store.create () in
        let exec = Exec.create ~jobs ~trace:store () in
        let executed () = Metrics.counter exec.Exec.metrics "cells_executed" in
        let name what = Printf.sprintf "jobs=%d: %s" jobs what in
        (match oks (Exec.cells exec [ a; b; a ]) with
        | [ a1; b1; a3 ] -> (
          Alcotest.(check int) (name "[a; b; a] executes 2 cells") 2
            (executed ());
          Alcotest.(check int) (name "2 cells ok") 2 (Exec.ok_count exec);
          Alcotest.(check int) (name "2 trace buffers") 2
            (Trace.Store.length store);
          Alcotest.(check bool) (name "a's results equal") true (a1 = a3);
          match oks (Exec.cells exec [ b; c ]) with
          | [ b2; _ ] ->
            Alcotest.(check int) (name "[b; c] executes 1 cell") 3
              (executed ());
            Alcotest.(check bool) (name "b equals the first grid's b") true
              (b1 = b2)
          | _ -> Alcotest.fail "a grid returns one result per spec")
        | _ -> Alcotest.fail "a grid returns one result per spec"))
      [ 1; 4 ]
  | _ -> assert false

(* what a campaign returns is what its artifact serializes *)
let test_results_are_artifact_summaries () =
  let specs = distinct_specs "pool-artifact" in
  let exec = Exec.create ~jobs:2 () in
  let grid = specs @ List.rev specs in
  let results = Exec.cells exec grid in
  let entries = (Metrics.artifact exec.Exec.metrics ~seed:"").Metrics.a_cells in
  List.iter2
    (fun sp r ->
      match
        List.find_opt
          (fun c -> c.Metrics.m_id = Experiment.spec_fingerprint sp)
          entries
      with
      | Some c ->
        Alcotest.(check bool)
          (Experiment.spec_label sp ^ ": result = artifact entry")
          true (r = c.Metrics.m_data)
      | None -> Alcotest.fail "a cell is missing from the artifact")
    grid results

(* ---- result cache ---------------------------------------------------------- *)

(* a fresh cache directory for [f], removed with its entries however [f]
   returns *)
let with_cache_dir name f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "pqtls-%s-%d-%.0f" name (Unix.getpid ())
         (Clock.now_s () *. 1e6))
  in
  let remove () =
    if Sys.file_exists dir then begin
      Array.iter
        (fun entry -> Sys.remove (Filename.concat dir entry))
        (Sys.readdir dir);
      Sys.rmdir dir
    end
  in
  Fun.protect ~finally:remove (fun () -> f dir)

let test_cache_roundtrip () =
  with_cache_dir "cache-test" @@ fun dir ->
  let specs = subgrid "pool-cache" in
  let first = Exec.create ~jobs:2 ~cache_dir:dir () in
  let cold = oks (Exec.cells first specs) in
  let counter exec = Metrics.counter exec.Exec.metrics in
  Alcotest.(check int) "cold run misses everything" (List.length specs)
    (counter first "cells_executed");
  Alcotest.(check int) "cold run hits nothing" 0
    (counter first "cells_from_cache");
  (* a fresh context over the same directory: all cells reload *)
  let second = Exec.create ~jobs:2 ~cache_dir:dir () in
  let warm = oks (Exec.cells second specs) in
  Alcotest.(check int) "warm run executes zero cells" 0
    (counter second "cells_executed");
  Alcotest.(check int) "warm run hits everything" (List.length specs)
    (counter second "cells_from_cache");
  (* marshal bytes are not comparable across a disk round-trip (string
     sharing between outcomes is lost), so compare structurally — floats
     included, which is exact *)
  Alcotest.(check bool) "cached outcomes identical" true (cold = warm)

let test_cache_key_sensitivity () =
  with_cache_dir "cache-test" @@ fun dir ->
  let c = Result_cache.create ~dir in
  let base = Experiment.spec ~seed:"a" (kem "kyber768") (sa "dilithium3") in
  let k1 = Result_cache.key c base in
  Alcotest.(check string) "key is stable" k1 (Result_cache.key c base);
  let different =
    [ Experiment.spec ~seed:"b" (kem "kyber768") (sa "dilithium3");
      Experiment.spec ~seed:"a" (kem "kyber512") (sa "dilithium3");
      Experiment.spec ~seed:"a" ~scenario:Scenario.five_g (kem "kyber768")
        (sa "dilithium3");
      Experiment.spec ~seed:"a" ~buffering:Tls.Config.Default_buffered
        (kem "kyber768") (sa "dilithium3");
      Experiment.spec ~seed:"a" ~buffer_limit:8192 (kem "kyber768")
        (sa "dilithium3") ]
  in
  List.iter
    (fun sp ->
      Alcotest.(check bool)
        ("distinct key for " ^ Experiment.spec_fingerprint sp)
        false
        (String.equal k1 (Result_cache.key c sp)))
    different

(* the production lookup path: a fresh context per run over one cache
   directory, with every entry on disk clobbered between runs *)
let test_cache_corrupt_entry_is_miss () =
  with_cache_dir "cache-test" @@ fun dir ->
  let spec = List.hd (subgrid "pool-corrupt") in
  let run () =
    let exec = Exec.create ~jobs:1 ~cache_dir:dir () in
    let o = oks (Exec.cells exec [ spec ]) in
    (o, Metrics.counter exec.Exec.metrics "cells_executed")
  in
  let o1, executed1 = run () in
  Alcotest.(check int) "first is a miss" 1 executed1;
  (* clobber the entry on disk; the reader must fall back to executing *)
  Array.iter
    (fun f ->
      Out_channel.with_open_bin (Filename.concat dir f) (fun oc ->
          output_string oc "not a marshalled outcome"))
    (Sys.readdir dir);
  let o2, executed2 = run () in
  Alcotest.(check int) "corrupt entry re-executes" 1 executed2;
  Alcotest.(check bool) "and returns the same outcome" true (o1 = o2);
  let _, executed3 = run () in
  Alcotest.(check int) "repaired entry now hits" 0 executed3

(* a repeated cell is looked up once: a cold grid [a; b; a] stores two
   entries, and a warm one reads two *)
let test_cache_repeat_read_once () =
  with_cache_dir "cache-test" @@ fun dir ->
  let a, b =
    match distinct_specs "pool-cache-repeat" with
    | a :: b :: _ -> (a, b)
    | _ -> assert false
  in
  let run () =
    let exec = Exec.create ~jobs:2 ~cache_dir:dir () in
    let r = oks (Exec.cells exec [ a; b; a ]) in
    let counter = Metrics.counter exec.Exec.metrics in
    (r, (counter "cells_executed", counter "cells_from_cache"))
  in
  let cold, cold_counts = run () in
  Alcotest.(check (pair int int)) "cold: two cells run" (2, 0) cold_counts;
  Alcotest.(check int) "two entries" 2 (Array.length (Sys.readdir dir));
  let warm, warm_counts = run () in
  Alcotest.(check (pair int int)) "warm: two entries read" (0, 2) warm_counts;
  Alcotest.(check bool) "same summaries" true (cold = warm)

(* every context has its own registry: two of them never share
   recorded cells or health counters *)
let test_sequential_contexts_independent () =
  let a = Exec.create ~jobs:1 () and b = Exec.create ~jobs:1 () in
  let spec k = Experiment.spec ~seed:"pool-seq" ~max_samples:2 (kem k) (sa "rsa:2048") in
  ignore (oks (Exec.cells a [ spec "x25519" ]));
  ignore (oks (Exec.cells b [ spec "kyber512"; spec "kyber768" ]));
  Alcotest.(check (pair int int)) "cells ok per context" (1, 2)
    (Exec.ok_count a, Exec.ok_count b);
  Alcotest.(check (pair int int)) "cells recorded per context" (1, 2)
    ( List.length (Metrics.artifact a.Exec.metrics ~seed:"").Metrics.a_cells,
      List.length (Metrics.artifact b.Exec.metrics ~seed:"").Metrics.a_cells );
  Alcotest.(check int) "executed counter per context" 1
    (Metrics.counter a.Exec.metrics "cells_executed")

let test_catalog_aliases () =
  Alcotest.(check string) "table2a resolves" "all-kem"
    (Catalog.resolve "table2a");
  Alcotest.(check string) "identity otherwise" "attack"
    (Catalog.resolve "attack");
  Alcotest.(check string) "alias and canonical describe the same campaign"
    (Catalog.describe "all-kem")
    (Catalog.describe "table2a")

let suites =
  [ ( "pool",
      [ Alcotest.test_case "pool map = List.map" `Quick test_pool_matches_map;
        Alcotest.test_case "pool on_done reporting" `Quick test_pool_on_done;
        Alcotest.test_case "pool exception propagation" `Quick
          test_pool_exception;
        Alcotest.test_case "parallel 3x3 grid bit-identical" `Slow
          test_parallel_bit_identical;
        Alcotest.test_case "parallel catalog report identical" `Slow
          test_catalog_report_bit_identical;
        Alcotest.test_case "default contexts are independent" `Quick
          test_sequential_contexts_independent;
        Alcotest.test_case "each distinct cell runs once" `Quick
          test_distinct_cells_run_once;
        Alcotest.test_case "results are the artifact's summaries" `Quick
          test_results_are_artifact_summaries ] );
    ( "result-cache",
      [ Alcotest.test_case "cold/warm roundtrip, zero re-execution" `Slow
          test_cache_roundtrip;
        Alcotest.test_case "key sensitivity" `Quick test_cache_key_sensitivity;
        Alcotest.test_case "corrupt entry is a miss" `Quick
          test_cache_corrupt_entry_is_miss;
        Alcotest.test_case "catalog aliases" `Quick test_catalog_aliases;
        Alcotest.test_case "a repeated cell is read once" `Quick
          test_cache_repeat_read_once ] ) ]
