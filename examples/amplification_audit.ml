(* Attack-surface audit (section 5.5): how much can a spoofed-source
   attacker amplify traffic through a PQ TLS server, and how skewed is
   the CPU cost between client and server?

     dune exec examples/amplification_audit.exe
*)

open Core

let () =
  print_endline "PQ TLS amplification / CPU-asymmetry audit (section 5.5)";
  print_endline
    "(QUIC mandates an anti-amplification limit of 3x for comparison)\n";
  let rows =
    Amplification.survey ~seed:"audit" ~exec:(Exec.create ~jobs:1 ()) ()
  in
  Printf.printf "%-16s %-20s %10s %14s\n" "KA" "SA" "CPU s/c" "amplification";
  print_endline (String.make 64 '-');
  List.iter
    (fun (r : Amplification.row) ->
      Printf.printf "%-16s %-20s %9.2fx %13.1fx %s\n" r.Amplification.kem
        r.Amplification.sa r.Amplification.cpu_ratio r.Amplification.amplification
        (if r.Amplification.amplification > Amplification.quic_limit then "!"
         else ""))
    rows;
  let worst = Amplification.worst_amplification rows in
  let skew = Amplification.worst_cpu_ratio rows in
  Printf.printf
    "\nworst amplifier: %s x %s at %.0fx -- a single spoofed ClientHello\n\
     elicits that many response bytes. The main lever is the signature\n\
     algorithm (certificate + CertificateVerify sizes).\n"
    worst.Amplification.kem worst.Amplification.sa
    worst.Amplification.amplification;
  Printf.printf
    "worst CPU skew: %s x %s at %.1fx server/client -- attractive for\n\
     algorithmic-complexity flooding.\n"
    skew.Amplification.kem skew.Amplification.sa skew.Amplification.cpu_ratio
