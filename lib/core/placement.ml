(* The signature-placement study (Table 7): how the chain profile — which
   SA signs at each hierarchy level — moves full-chain wire size,
   verification CPU, and the number of TCP flights the server's
   certificate flight needs under slow-start. *)

let flights_to_deliver ~(tcp : Netsim.Tcp.config) bytes =
  (* flight n delivers init_cwnd * 2^(n-1) segments: the smallest n with
     mss * init_cwnd * (2^n - 1) >= bytes gets the flight on the wire *)
  let window = tcp.Netsim.Tcp.mss * tcp.Netsim.Tcp.init_cwnd_segments in
  let rec go n delivered cwnd_bytes =
    if delivered >= bytes then n
    else go (n + 1) (delivered + cwnd_bytes) (2 * cwnd_bytes)
  in
  if bytes <= 0 then 0 else go 0 0 window

(* the Table 6 anchor pairs: the classical baseline, a mid lattice pair,
   and the hash-based outlier whose chain bytes dominate everything *)
let table7_pairs =
  [ ("x25519", "rsa:2048"); ("kyber768", "dilithium3");
    ("kyber512", "sphincs128") ]

(* the two deterministic paper scenarios: an unimpaired link pins the
   CPU story, the 0.5 s-delay link exposes the flight cliff *)
let table7_scenarios = [ Scenario.no_emulation; Scenario.high_delay ]

(* per-level stats of exactly the credentials the mocked cells serve
   (same cache entry), computable without running the cell — failed
   cells still render their placement columns *)
let chain_stats ~profile sa_name =
  let alg = Pqc.Sigalg.mocked (Pqc.Registry.find_sig sa_name) in
  let creds = Tls.Credentials.get ~profile alg in
  Tls.Chain.levels creds.Tls.Credentials.chain

let rec chunks n = function
  | [] -> []
  | xs ->
    let rec split i = function
      | rest when i = 0 -> ([], rest)
      | [] -> ([], [])
      | x :: rest ->
        let taken, left = split (i - 1) rest in
        (x :: taken, left)
    in
    let taken, left = split n xs in
    taken :: chunks n left

let cwnd_variant segments =
  { Netsim.Tcp.default_config with Netsim.Tcp.init_cwnd_segments = segments }

let table7_grid ~seed ~exec ~pairs ~profiles ~max_samples =
  let scenarios = table7_scenarios in
  let specs =
    List.concat_map
      (fun (k, s) ->
        List.concat_map
          (fun profile ->
            List.map
              (fun scenario ->
                Experiment.spec ~seed ~max_samples ~scenario ~chain:profile
                  (Pqc.Registry.find_kem k) (Pqc.Registry.find_sig s))
              scenarios)
          profiles)
      pairs
  in
  let results = Exec.cells exec specs in
  let groups =
    chunks (List.length scenarios) (List.combine specs results)
  in
  let meta =
    List.concat_map
      (fun (k, s) -> List.map (fun p -> (k, s, p)) profiles)
      pairs
  in
  let p50_of = function
    | Ok (o : Experiment.outcome) ->
      Printf.sprintf "%8.2f"
        (Stats.median
           (List.map (fun s -> s.Experiment.total_ms) o.Experiment.samples))
    | Error _ -> Printf.sprintf "%8s" (Tablefmt.dash 8)
  in
  let rows =
    List.map2
      (fun (k, s, (profile : Tls.Chain_profile.t)) group ->
        let levels = chain_stats ~profile s in
        let chain_b =
          List.fold_left (fun a l -> a + l.Tls.Chain.lv_bytes) 0 levels
        in
        let verify_ms =
          List.fold_left (fun a l -> a +. l.Tls.Chain.lv_verify_ms) 0. levels
        in
        let totals = List.map (fun (_, r) -> p50_of r) group in
        (* server flight bytes measured on the unimpaired link *)
        let sv_bytes =
          match group with
          | (_, Ok (o : Experiment.outcome)) :: _ ->
            Some
              (Experiment.median_bytes
                 (fun s -> s.Experiment.server_bytes)
                 o)
          | _ -> None
        in
        let sv_col, fl10, fl40 =
          match sv_bytes with
          | Some b ->
            ( Printf.sprintf "%8d" b,
              Printf.sprintf "%5d" (flights_to_deliver ~tcp:(cwnd_variant 10) b),
              Printf.sprintf "%5d" (flights_to_deliver ~tcp:(cwnd_variant 40) b)
            )
          | None ->
            ( Printf.sprintf "%8s" (Tablefmt.dash 8),
              Printf.sprintf "%5s" (Tablefmt.dash 5),
              Printf.sprintf "%5s" (Tablefmt.dash 5) )
        in
        Printf.sprintf "%-12s %-12s %-16s %5d %8d %8.3f %s %s %s %s" k s
          profile.Tls.Chain_profile.name
          (Tls.Chain_profile.depth profile)
          chain_b verify_ms
          (String.concat " " totals)
          sv_col fl10 fl40)
      meta groups
  in
  let main =
    Tablefmt.buf_table
      "Table 7: signature placement across certificate hierarchies \
       (root/intermediate/leaf)"
      (Printf.sprintf "%-12s %-12s %-16s %5s %8s %8s %8s %8s %8s %5s %5s" "KA"
         "SA" "chain" "depth" "chain B" "vfy ms" "p50 none" "p50 dly"
         "sv B" "fl@10" "fl@40")
      rows
  in
  let breakdown_rows =
    List.concat_map
      (fun (_, s, (profile : Tls.Chain_profile.t)) ->
        List.map
          (fun (l : Tls.Chain.level_stat) ->
            Printf.sprintf "%-12s %-16s %-6s %-14s %8d %8.3f" s
              profile.Tls.Chain_profile.name l.Tls.Chain.lv_name
              l.Tls.Chain.lv_issuer_sa l.Tls.Chain.lv_bytes
              l.Tls.Chain.lv_verify_ms)
          (chain_stats ~profile s))
      meta
  in
  let breakdown =
    Tablefmt.buf_table
      "Table 7 per-level breakdown (CertificateEntry bytes, verify CPU per \
       issuing SA)"
      (Printf.sprintf "%-12s %-16s %-6s %-14s %8s %8s" "SA" "chain" "level"
         "issuer SA" "bytes" "vfy ms")
      breakdown_rows
  in
  main ^ "\n" ^ breakdown

let table7 ?(seed = "table7") ?(exec = Exec.sequential ()) () =
  table7_grid ~seed ~exec ~pairs:table7_pairs
    ~profiles:Tls.Chain_profile.all ~max_samples:40

(* the CI gate's campaign: two pairs, three shapes, a dozen samples *)
let table7_smoke ?(seed = "table7") ?(exec = Exec.sequential ()) () =
  table7_grid ~seed ~exec
    ~pairs:[ ("x25519", "rsa:2048"); ("kyber512", "sphincs128") ]
    ~profiles:
      [ Tls.Chain_profile.default;
        Tls.Chain_profile.find "slhdsa-root";
        Tls.Chain_profile.find "mixed-acme" ]
    ~max_samples:10
