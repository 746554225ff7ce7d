(* The server-farm layer: arrival-stream generators, least-connections
   balancing, farm admission control, the fixed farm shape's identity
   strings, and the farm campaign's determinism contract
   (byte-identical metrics artifacts for any [jobs], cache states and
   retry budgets included). *)

open Core

let kem = Pqc.Registry.find_kem
let sa = Pqc.Registry.find_sig

(* ---- Workload generators --------------------------------------------------- *)

let arrivals ?(profile = "poisson") ~seed ~rate ~duration_s () =
  Netsim.Workload.arrivals
    (Netsim.Workload.find profile)
    ~rng:(Crypto.Drbg.create ~seed)
    ~rate ~duration_s

let test_workload_reproducible () =
  List.iter
    (fun (w : Netsim.Workload.t) ->
      let a =
        arrivals ~profile:w.name ~seed:"farm" ~rate:500. ~duration_s:1. ()
      in
      let b =
        arrivals ~profile:w.name ~seed:"farm" ~rate:500. ~duration_s:1. ()
      in
      Alcotest.(check (list (float 0.)))
        (w.name ^ " same seed, same stream")
        a b;
      let c =
        arrivals ~profile:w.name ~seed:"other" ~rate:500. ~duration_s:1. ()
      in
      Alcotest.(check bool) (w.name ^ " different seed differs") true (a <> c))
    Netsim.Workload.all

let test_workload_shape () =
  List.iter
    (fun (w : Netsim.Workload.t) ->
      let rate = 2000. and duration_s = 1. in
      let xs = arrivals ~profile:w.name ~seed:"shape" ~rate ~duration_s () in
      Alcotest.(check bool) (w.name ^ " sorted") true
        (List.sort compare xs = xs);
      List.iter
        (fun t ->
          if t < 0. || t > duration_s then
            Alcotest.failf "%s arrival %f outside [0, %f]" w.name t duration_s)
        xs;
      (* the shape is normalized to mean 1, so the count concentrates
         around rate * duration (Poisson noise: sd = sqrt n ~ 45) *)
      let n = float_of_int (List.length xs) in
      let expect = rate *. duration_s in
      Alcotest.(check bool)
        (Printf.sprintf "%s mean rate (%.0f arrivals)" w.name n)
        true
        (Float.abs (n -. expect) < 6. *. sqrt expect))
    Netsim.Workload.all

let test_workload_degenerate () =
  Alcotest.(check (list (float 0.))) "zero rate" []
    (arrivals ~seed:"z" ~rate:0. ~duration_s:1. ());
  Alcotest.(check (list (float 0.))) "zero duration" []
    (arrivals ~seed:"z" ~rate:100. ~duration_s:0. ());
  Alcotest.check_raises "unknown profile"
    (Invalid_argument "Workload.find: unknown arrival profile diurnal")
    (fun () ->
      ignore (Netsim.Workload.find "diurnal"))

(* ---- least-connections balancing ----------------------------------------- *)

(* One slot per server; server 0 serves in 0.1 s, the others in 1 s.
   Three idle servers take the first three simultaneous arrivals in
   index order. The fourth finds load 1 everywhere and goes to server 0;
   the fifth finds [2; 1; 1] and goes to server 1, so queued connections
   count. At 0.5 s server 0 has drained while servers 1 and 2 hold 2 and
   1, so the last arrival goes to server 0. *)
let test_balancer_least_connections () =
  let engine = Netsim.Engine.create () in
  let assigned = ref [] in
  let _farm =
    Netsim.Farm.create ~engine
      ~config:
        { Netsim.Farm.servers = 3; max_concurrent = 1; accept_queue = 4 }
      ~arrivals:[ 0.; 0.; 0.; 0.; 0.; 0.5 ]
      ~launch:(fun ~server ~conn ~finished ->
        assigned := (conn, server) :: !assigned;
        Netsim.Engine.schedule engine
          ~delay:(if server = 0 then 0.1 else 1.)
          finished)
  in
  Netsim.Engine.run engine;
  Alcotest.(check (list int)) "server per arrival" [ 0; 1; 2; 0; 1; 0 ]
    (List.map snd (List.sort compare !assigned))

(* ---- Farm admission control ------------------------------------------------- *)

(* synthetic launch: every handshake occupies its slot for [service]
   virtual seconds — admission, queueing and drops in isolation *)
let run_farm ~servers ~max_concurrent ~accept_queue ~arrivals ~service =
  let engine = Netsim.Engine.create () in
  let peak = ref 0 in
  let in_service = Array.make servers 0 in
  let farm =
    Netsim.Farm.create ~engine
      ~config:{ Netsim.Farm.servers; max_concurrent; accept_queue }
      ~arrivals
      ~launch:(fun ~server ~conn:_ ~finished ->
        in_service.(server) <- in_service.(server) + 1;
        peak := max !peak in_service.(server);
        Netsim.Engine.schedule engine ~delay:service (fun () ->
            in_service.(server) <- in_service.(server) - 1;
            finished ()))
  in
  Netsim.Engine.run engine;
  (farm, !peak)

let test_farm_accounting () =
  (* 30 simultaneous arrivals onto 2 servers x (2 in service + 3
     queued): 20 admitted-or-queued, 10 dropped at the accept queue *)
  let arrivals = List.init 30 (fun _ -> 0.) in
  let farm, peak =
    run_farm ~servers:2 ~max_concurrent:2 ~accept_queue:3 ~arrivals
      ~service:0.01
  in
  Alcotest.(check int) "offered" 30 (Netsim.Farm.offered farm);
  Alcotest.(check int) "completed" 10 (Netsim.Farm.completed farm);
  Alcotest.(check int) "dropped" 20 (Netsim.Farm.dropped farm);
  Alcotest.(check int) "unfinished" 0 (Netsim.Farm.unfinished farm);
  Alcotest.(check int) "concurrency limit held" 2 peak;
  Alcotest.(check (list int)) "balanced across servers" [ 5; 5 ]
    (Array.to_list (Netsim.Farm.per_server_completed farm));
  (* queued connections wait one service time per predecessor *)
  let waits = Netsim.Farm.wait_ms farm in
  Alcotest.(check int) "latency per completed conn" 10
    (List.length (Netsim.Farm.latencies_ms farm));
  Alcotest.(check (float 1e-6)) "head of queue admitted immediately" 0.
    (List.hd waits);
  Alcotest.(check bool) "tail of queue waited" true
    (List.exists (fun w -> w > 19.) waits)

let test_farm_unfinished () =
  let engine = Netsim.Engine.create () in
  let farm =
    Netsim.Farm.create ~engine
      ~config:
        { Netsim.Farm.servers = 1; max_concurrent = 4; accept_queue = 4 }
      ~arrivals:[ 0.; 0.5 ]
      ~launch:(fun ~server:_ ~conn:_ ~finished ->
        Netsim.Engine.schedule engine ~delay:1. (fun () -> finished ()))
  in
  (* stop before the second handshake's service completes *)
  Netsim.Engine.run engine ~until:1.2;
  Alcotest.(check int) "one completed" 1 (Netsim.Farm.completed farm);
  Alcotest.(check int) "one in flight at the horizon" 1
    (Netsim.Farm.unfinished farm)

(* ---- the farm campaign ------------------------------------------------------ *)

(* The fingerprint is both the artifact id and the cache-key pre-image,
   and the label keys the artifact; both still spell out the farm's fixed
   shape (ideal link "none", least-connections, 64 + 128 per server, an
   x25519 adversary). One attack and one capacity cell of farm-smoke. *)
let test_farm_spec_identity () =
  let spec ?profile ?adv_fraction ~max_connections k s =
    Experiment.farm_spec ~seed:"pqtls" ?profile ~utilization:0.90
      ?adv_fraction ~servers:2 ~duration_s:0.4 ~max_connections (kem k) (sa s)
  in
  let attack =
    spec ~adv_fraction:0.3 ~max_connections:200 "kyber512" "sphincs128"
  in
  let capacity =
    spec ~profile:"flash-crowd" ~max_connections:240 "x25519" "rsa:2048"
  in
  Alcotest.(check string) "attack fingerprint"
    "farm-v1|kem=kyber512|sig=sphincs128|scenario=none|loss=0x0p+0|loss_towards=-|delay=0x1.0c6f7a0b5ed8dp-20|jitter=0x0p+0|rate=0x1.2a05f2p+33|profile=poisson|policy=least-connections|servers=2|conc=64|queue=128|util=0x1.ccccccccccccdp-1|duration=0x1.999999999999ap-2|maxconn=200|adv=0x1.3333333333333p-2|advkem=x25519|seed=pqtls"
    (Experiment.farm_spec_fingerprint attack);
  Alcotest.(check string) "attack label"
    "farm kyber512 x sphincs128 @ none/poisson u=0.90 adv=30%"
    (Experiment.farm_spec_label attack);
  Alcotest.(check string) "capacity fingerprint"
    "farm-v1|kem=x25519|sig=rsa:2048|scenario=none|loss=0x0p+0|loss_towards=-|delay=0x1.0c6f7a0b5ed8dp-20|jitter=0x0p+0|rate=0x1.2a05f2p+33|profile=flash-crowd|policy=least-connections|servers=2|conc=64|queue=128|util=0x1.ccccccccccccdp-1|duration=0x1.999999999999ap-2|maxconn=240|adv=0x0p+0|advkem=x25519|seed=pqtls"
    (Experiment.farm_spec_fingerprint capacity);
  Alcotest.(check string) "capacity label"
    "farm x25519 x rsa:2048 @ none/flash-crowd u=0.90"
    (Experiment.farm_spec_label capacity)

let farm_grid seed =
  List.concat_map
    (fun (k, s) ->
      List.map
        (fun profile ->
          Experiment.farm_spec ~seed ~profile ~servers:2 ~duration_s:0.2
            ~max_connections:120 (kem k) (sa s))
        [ "poisson"; "flash-crowd" ])
    [ ("x25519", "rsa:2048"); ("kyber768", "dilithium3") ]

let farm_artifact_string ~jobs ~seed =
  let exec = Exec.create ~jobs () in
  let results = Exec.farm_cells exec (farm_grid seed) in
  Alcotest.(check int) "all farm cells ok"
    (List.length (farm_grid seed))
    (List.length (List.filter Result.is_ok results));
  Metrics.to_json_string (Metrics.artifact exec.Exec.metrics ~seed)

let parse_artifact s =
  match Metrics.of_json_string s with
  | Ok a -> a
  | Error e -> Alcotest.fail e

let test_farm_jobs_identity () =
  let a1 = farm_artifact_string ~jobs:1 ~seed:"farm-jobs" in
  let a4 = farm_artifact_string ~jobs:4 ~seed:"farm-jobs" in
  Alcotest.(check string) "jobs=1 and jobs=4 byte-identical" a1 a4;
  let p = parse_artifact a1 in
  Alcotest.(check int) "four farm cells" 4
    (List.length p.Metrics.p_rows);
  Alcotest.(check (list string)) "self-diff is clean" []
    (Metrics.diff p (parse_artifact a4));
  let first = List.hd p.Metrics.p_rows in
  Alcotest.(check string) "spec order preserved"
    "farm x25519 x rsa:2048 @ none/poisson u=0.90" first.Metrics.p_key;
  Alcotest.(check bool) "farm leaves present" true
    (List.mem_assoc "data.latency_ms.handshake.p99" first.Metrics.p_leaves
    && List.mem_assoc "data.latency_ms.p999" first.Metrics.p_leaves
    && List.mem_assoc "data.load.capacity_hs_s" first.Metrics.p_leaves
    && List.mem_assoc "data.servers.busy" first.Metrics.p_leaves)

let test_farm_outcome_sanity () =
  let o =
    Experiment.run_farm_spec
      (Experiment.farm_spec ~seed:"farm-sane" ~servers:2 ~duration_s:0.2
         ~max_connections:120 ~adv_fraction:0.3 (kem "kyber512")
         (sa "sphincs128"))
  in
  Alcotest.(check int) "conservation: offered = completed+dropped+unfinished"
    o.Experiment.fo_offered
    (o.Experiment.fo_completed + o.Experiment.fo_dropped
   + o.Experiment.fo_unfinished);
  Alcotest.(check int) "per-server counts sum to completed"
    o.Experiment.fo_completed
    (List.fold_left ( + ) 0 o.Experiment.fo_per_server_completed);
  Alcotest.(check bool) "capacity positive" true
    (o.Experiment.fo_capacity_hs_s > 0.);
  Alcotest.(check bool) "utilization below 1" true
    (o.Experiment.fo_server_busy > 0. && o.Experiment.fo_server_busy <= 1.);
  Alcotest.(check bool) "adversarial clients drawn" true
    (o.Experiment.fo_adv_launched > 0
    && o.Experiment.fo_adv_launched < o.Experiment.fo_offered);
  (* the x25519 adversary buys the full SPHINCS+ server flight with a
     tiny client flight: the paper's amplification asymmetry, at scale *)
  Alcotest.(check bool) "amplification over QUIC's 3x" true
    (o.Experiment.fo_adv_server_bytes > 3 * o.Experiment.fo_adv_client_bytes)

let test_farm_retry_and_failure () =
  (* injected failure on a farm label: retries reseed deterministically,
     budget exhaustion yields Error and the campaign keeps going *)
  let exec = Exec.create ~jobs:2 ~retries:1 ~fail_cell:"flash-crowd" () in
  let results = Exec.farm_cells exec (farm_grid "farm-fail") in
  let oks, errs = List.partition Result.is_ok results in
  Alcotest.(check (pair int int)) "poisson cells ok, flash-crowd cells fail"
    (2, 2)
    (List.length oks, List.length errs);
  Alcotest.(check int) "failures counted" 2 (Exec.failed_count exec);
  List.iter
    (function
      | Error (e : Exec.cell_error) ->
        Alcotest.(check int) "attempt budget spent" 2 e.Exec.ce_attempts
      | Ok _ -> ())
    results

(* ---- farm cells through the result cache ----------------------------------- *)

let temp_cache_dir () =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "pqtls-farm-cache-test-%d-%.0f" (Unix.getpid ())
       (Clock.now_s () *. 1e6))

let farm_cache_grid seed = List.filteri (fun i _ -> i < 2) (farm_grid seed)

let test_farm_cache_roundtrip () =
  let dir = temp_cache_dir () and seed = "farm-cache" in
  let run () =
    let exec = Exec.create ~jobs:2 ~cache_dir:dir () in
    let results = Exec.farm_cells exec (farm_cache_grid seed) in
    Alcotest.(check bool) "farm cells ok" true
      (List.for_all Result.is_ok results);
    ( Metrics.to_json_string (Metrics.artifact exec.Exec.metrics ~seed),
      Metrics.counter exec.Exec.metrics "cells_executed",
      Metrics.counter exec.Exec.metrics "cells_from_cache" )
  in
  let cold, cold_executed, _ = run () in
  let warm, warm_executed, warm_hits = run () in
  Alcotest.(check int) "cold run executes every cell" 2 cold_executed;
  Alcotest.(check (pair int int)) "warm run executes nothing" (0, 2)
    (warm_executed, warm_hits);
  Alcotest.(check string) "cached artifact byte-identical" cold warm

let test_farm_cache_entries () =
  let dir = temp_cache_dir () in
  let c = Result_cache.create ~dir in
  let spec = List.hd (farm_cache_grid "farm-cache-entry") in
  let k = Result_cache.farm_key c spec in
  let o = Experiment.run_farm_spec spec in
  Result_cache.store_farm c k o;
  Alcotest.(check bool) "stored entry hits" true
    (Result_cache.find_farm c k = Some o);
  (* a standard lookup under the very same key must not read the farm
     entry, not even when its file sits where a standard entry would *)
  let file = Filename.concat dir (Sys.readdir dir).(0) in
  let payload = In_channel.with_open_bin file In_channel.input_all in
  Alcotest.(check bool) "standard lookup misses" true
    (Result_cache.find c k = None);
  Out_channel.with_open_bin
    (Filename.concat dir (k ^ ".outcome"))
    (fun oc -> output_string oc payload);
  Alcotest.(check bool) "farm payload is unreadable as a standard entry"
    true
    (Result_cache.find c k = None);
  Out_channel.with_open_bin file (fun oc -> output_string oc "not an outcome");
  Alcotest.(check bool) "corrupt farm entry is a miss" true
    (Result_cache.find_farm c k = None)

let suites =
  [ ( "farm",
      [ Alcotest.test_case "workload reproducible from seed" `Quick
          test_workload_reproducible;
        Alcotest.test_case "workload shapes + mean rate" `Quick
          test_workload_shape;
        Alcotest.test_case "workload degenerate inputs" `Quick
          test_workload_degenerate;
        Alcotest.test_case "balancer least-connections" `Quick
          test_balancer_least_connections;
        Alcotest.test_case "farm admission accounting" `Quick
          test_farm_accounting;
        Alcotest.test_case "farm unfinished at horizon" `Quick
          test_farm_unfinished;
        Alcotest.test_case "farm spec identity strings" `Quick
          test_farm_spec_identity;
        Alcotest.test_case "farm campaign jobs identity" `Slow
          test_farm_jobs_identity;
        Alcotest.test_case "farm outcome sanity" `Slow
          test_farm_outcome_sanity;
        Alcotest.test_case "farm retry and failure" `Slow
          test_farm_retry_and_failure;
        Alcotest.test_case "farm cache cold/warm byte-identity" `Slow
          test_farm_cache_roundtrip;
        Alcotest.test_case "farm cache entries stay apart" `Slow
          test_farm_cache_entries ] ) ]
