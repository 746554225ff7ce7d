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
      ~on_done:(fun ~index ~completed:_ ~total x y _elapsed ->
        Alcotest.(check int) "total" 10 total;
        Alcotest.(check int) "result matches input" (x + 1) y;
        seen := index :: !seen)
      (fun x -> x + 1)
      (List.init 10 Fun.id)
  in
  Alcotest.(check (list int)) "results ordered" (List.init 10 (fun i -> i + 1))
    results;
  Alcotest.(check (list int)) "every index reported once"
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

let marshal_bytes (outcomes : Experiment.outcome list) =
  Marshal.to_string outcomes []

(* these grids are loss-free and must never fail a cell *)
let oks results =
  List.map
    (function
      | Ok o -> o
      | Error (e : Exec.cell_error) ->
        Alcotest.fail ("unexpected cell failure: " ^ e.Exec.ce_message))
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

(* ---- result cache ---------------------------------------------------------- *)

let temp_cache_dir () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "pqtls-cache-test-%d-%.0f" (Unix.getpid ())
         (Clock.now_s () *. 1e6))
  in
  dir

let test_cache_roundtrip () =
  let dir = temp_cache_dir () in
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
  let dir = temp_cache_dir () in
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
  let dir = temp_cache_dir () in
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
          test_sequential_contexts_independent ] );
    ( "result-cache",
      [ Alcotest.test_case "cold/warm roundtrip, zero re-execution" `Slow
          test_cache_roundtrip;
        Alcotest.test_case "key sensitivity" `Quick test_cache_key_sensitivity;
        Alcotest.test_case "corrupt entry is a miss" `Quick
          test_cache_corrupt_entry_is_miss;
        Alcotest.test_case "catalog aliases" `Quick test_catalog_aliases ] ) ]
