(* A migration audit: what does it cost to move a TLS deployment from
   classical crypto to hybrid, and then to pure PQ, at each NIST level?
   This reproduces the discussion-section recommendation ("shift toward
   hybrids: no significant performance drawback") with numbers.

     dune exec examples/hybrid_migration.exe
*)

open Core

type stage = { label : string; ka : string; sa : string }

let plans =
  [ ( 1,
      [ { label = "classical"; ka = "x25519"; sa = "rsa:2048" };
        { label = "hybrid"; ka = "p256_kyber512"; sa = "p256_dilithium2" };
        { label = "pure PQ"; ka = "kyber512"; sa = "dilithium2" } ] );
    ( 3,
      [ { label = "classical"; ka = "p384"; sa = "rsa:3072" };
        { label = "hybrid"; ka = "p384_kyber768"; sa = "p384_dilithium3" };
        { label = "pure PQ"; ka = "kyber768"; sa = "dilithium3" } ] );
    ( 5,
      [ { label = "classical"; ka = "p521"; sa = "rsa:4096" };
        { label = "hybrid"; ka = "p521_kyber1024"; sa = "p521_dilithium5" };
        { label = "pure PQ"; ka = "kyber1024"; sa = "dilithium5" } ] ) ]

let () =
  print_endline "Classical -> hybrid -> pure-PQ migration, per NIST level";
  Printf.printf "%-5s %-10s %-30s %10s %10s %10s\n" "level" "stage"
    "KA x SA" "total ms" "hs/60s" "bytes";
  print_endline (String.make 82 '-');
  List.iter
    (fun (level, stages) ->
      List.iter
        (fun st ->
          let o =
            Experiment.run_spec
              (Experiment.spec ~seed:"migration"
                 (Pqc.Registry.find_kem st.ka)
                 (Pqc.Registry.find_sig st.sa))
          in
          let total =
            Experiment.median_of (fun s -> s.Experiment.total_ms) o
          in
          let bytes =
            Experiment.median_bytes (fun s -> s.Experiment.client_bytes) o
            + Experiment.median_bytes (fun s -> s.Experiment.server_bytes) o
          in
          Printf.printf "%-5d %-10s %-30s %10.2f %10d %10d\n" level st.label
            (st.ka ^ " x " ^ st.sa) total o.Experiment.handshakes_per_minute
            bytes)
        stages;
      print_newline ())
    plans;
  print_endline
    "Reading: on level 1 the hybrid column costs almost nothing over\n\
     classical; on levels 3-5 pure PQ is the fastest option because the\n\
     classical component (generic P-384/P-521, big RSA) is the bottleneck --\n\
     the paper's conclusion, regenerated."
