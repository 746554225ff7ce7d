type row = {
  level : int;
  kem : string;
  sa : string;
  handshakes_per_s : float;
  server_cpu_ms : float;
  client_cpu_ms : float;
  server_pkts : int;
  client_pkts : int;
  server_libs : (string * float) list;
  client_libs : (string * float) list;
}

let paper_pairs =
  [ (1, "x25519", "rsa:2048");
    (1, "kyber512", "dilithium2");
    (1, "bikel1", "dilithium2");
    (1, "kyber512", "sphincs128");
    (1, "hqc128", "falcon512");
    (1, "p256_kyber512", "p256_dilithium2");
    (3, "kyber768", "dilithium3");
    (5, "kyber1024", "dilithium5") ]

let spec_of ~seed (_, kem_name, sa_name) =
  Experiment.spec ~seed
    (Pqc.Registry.find_kem kem_name)
    (Pqc.Registry.find_sig sa_name)

let row_of (level, kem_name, sa_name) o =
  let pkts f = int_of_float (Stats.median_int (List.map f o.Experiment.samples)) in
  { level;
    kem = kem_name;
    sa = sa_name;
    handshakes_per_s = float_of_int o.Experiment.handshakes_per_minute /. 60.;
    server_cpu_ms = o.Experiment.server_cpu_ms;
    client_cpu_ms = o.Experiment.client_cpu_ms;
    server_pkts = pkts (fun s -> s.Experiment.server_pkts);
    client_pkts = pkts (fun s -> s.Experiment.client_pkts);
    server_libs = o.Experiment.server_ledger;
    client_libs = o.Experiment.client_ledger }

let rows ~seed ~exec pairs =
  let results = Exec.cells exec (List.map (spec_of ~seed) pairs) in
  List.map2
    (fun p r -> match r with Ok o -> Some (row_of p o) | Error _ -> None)
    pairs results

let measure ~seed pair = row_of pair (Experiment.run_spec (spec_of ~seed pair))

(* Trace-vs-ledger cross-check: the ledger is written by Host.charge and
   every charge also emits exactly one cpu span tagged with its library,
   so the two per-library CPU shares must agree to float rounding. A
   disagreement means an instrumentation path was missed. *)

type trace_check = {
  tc_side : string;
  tc_lib : string;
  tc_whitebox : float;
  tc_trace : float;
}

let side_checks side ledger trace_shares =
  let libs =
    List.sort_uniq compare (List.map fst ledger @ List.map fst trace_shares)
  in
  let get l assoc = Option.value ~default:0. (List.assoc_opt l assoc) in
  List.map
    (fun lib ->
      { tc_side = side;
        tc_lib = lib;
        tc_whitebox = get lib ledger;
        tc_trace = get lib trace_shares })
    libs

let trace_checks outcome buf =
  let shares = Trace.Summary.cpu_shares buf in
  let of_track track = Option.value ~default:[] (List.assoc_opt track shares) in
  side_checks "client" outcome.Experiment.client_ledger (of_track "client")
  @ side_checks "server" outcome.Experiment.server_ledger (of_track "server")

let max_trace_delta checks =
  List.fold_left
    (fun acc c -> Float.max acc (Float.abs (c.tc_whitebox -. c.tc_trace)))
    0. checks

let render_trace_checks title checks =
  let b = Buffer.create 512 in
  Printf.bprintf b "%s\n" title;
  Printf.bprintf b "%-8s %-10s %10s %10s %8s\n" "side" "library"
    "whitebox" "trace" "delta";
  List.iter
    (fun c ->
      Printf.bprintf b "%-8s %-10s %9.2f%% %9.2f%% %8.4f\n" c.tc_side c.tc_lib
        (100. *. c.tc_whitebox) (100. *. c.tc_trace)
        (Float.abs (c.tc_whitebox -. c.tc_trace)))
    checks;
  Printf.bprintf b "max |whitebox - trace| = %.6f\n" (max_trace_delta checks);
  Buffer.contents b
