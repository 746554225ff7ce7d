(* Choosing a PQ algorithm for constrained links (the section-5.4 story):
   the same candidate set is measured over LTE-M (15 km, lossy, 1 Mbit/s)
   and a 5G link, plus the 1 s-RTT case that exposes the initial-CWND
   ceiling.

     dune exec examples/constrained_envs.exe
*)

open Core

let candidates =
  (* (KA, SA) deployment candidates a practitioner might shortlist *)
  [ ("x25519", "rsa:2048") (* today's baseline *);
    ("kyber512", "falcon512") (* small PQ *);
    ("kyber768", "dilithium3") (* mainstream PQ *);
    ("p256_kyber512", "p256_dilithium2") (* hybrid *);
    ("hqc128", "dilithium2") (* big KEM keys *);
    ("kyber512", "sphincs128") (* hash-based signatures *) ]

let scenarios = [ Scenario.lte_m; Scenario.five_g; Scenario.high_delay ]

let () =
  print_endline "Algorithm choice on constrained links (medians of 60 s runs)";
  Printf.printf "%-16s %-16s %12s %12s %12s %9s\n" "KA" "SA" "LTE-M ms"
    "5G ms" "1s-RTT ms" "bytes";
  print_endline (String.make 82 '-');
  (* one grid: per candidate, the ideal link for the byte count, then
     the three scenarios *)
  let exec = Exec.create ~jobs:(Pool.default_jobs ()) () in
  let rows =
    List.map2
      (fun pair cells ->
        match
          List.map
            (function
              | Ok (d : Metrics.cell_data) -> d
              | Error message -> failwith message)
            cells
        with
        | ideal :: scenario_cells ->
          ( pair,
            List.map (fun d -> d.Metrics.cd_total.d_p50) scenario_cells,
            int_of_float ideal.cd_server_bytes.d_p50
            + int_of_float ideal.cd_client_bytes.d_p50 )
        | [] -> assert false)
      candidates
      (Tablefmt.chunks (Exec.cells exec)
         (List.map
            (fun (k, s) ->
              let kem = Pqc.Registry.find_kem k
              and sa = Pqc.Registry.find_sig s in
              List.map
                (fun scenario ->
                  Experiment.spec ~seed:"constrained" ~scenario kem sa)
                (Scenario.no_emulation :: scenarios))
            candidates))
  in
  List.iter
    (fun ((k, s), meds, bytes) ->
      match meds with
      | [ lte; fiveg; delay ] ->
        Printf.printf "%-16s %-16s %12.1f %12.1f %12.1f %9d\n" k s lte fiveg
          delay bytes
      | _ -> assert false)
    rows;
  (* the section-5.4 takeaway, computed rather than asserted *)
  let lte_of (_, meds, _) = List.hd meds in
  let best_lte =
    List.fold_left
      (fun best row -> if lte_of row < lte_of best then row else best)
      (List.hd rows) (List.tl rows)
  in
  let (bk, bs), _, _ = best_lte in
  Printf.printf
    "\nfastest on LTE-M: %s x %s -- small keys beat raw CPU speed once the\n\
     link is slow; handshakes whose flights exceed the initial congestion\n\
     window (10 segments) pay whole extra round trips in the 1 s-RTT column.\n"
    bk bs
