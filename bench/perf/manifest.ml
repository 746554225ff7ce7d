(* The benchmark's contract in one place: its workloads, its metrics with
   units, directions and regression bounds, and the root BENCHMARK.json
   rendered from them (the runtest rule diffs the two). *)

type workload = {
  name : string;
  experiments : string list;  (** {!Core.Catalog} names, run in order *)
  cached : bool;
      (** re-run against a result cache that an untimed pass fills *)
  why : string;
}

let workloads =
  [ { name = "kem-ideal";
      experiments = [ "all-kem" ];
      cached = false;
      why =
        "Table 2a, 23 KAs x rsa:2048 on the ideal link: small flights, so \
         per-handshake fixed costs and the serial Metrics.record_cell phase \
         dominate" };
    { name = "sig-ideal";
      experiments = [ "all-sig" ];
      cached = false;
      why =
        "Table 2b, x25519 x 24 SAs on the ideal link: flights up to 105 kB \
         (SPHINCS+), so per-byte mocked-XOF, transcript and record work \
         dominate" };
    { name = "impaired";
      experiments = [ "ablation-hrr" ];
      cached = false;
      why =
        "HRR ablation, 18 cells on ideal, 5G (4% loss) and 1 s RTT links: \
         lossy cells run 200-sample caps with retransmits, RTO timers and \
         n=200 bootstraps" };
    { name = "farm";
      experiments = [ "farm-smoke" ];
      cached = false;
      why =
        "Table 5 at smoke size, 6 open-loop cells of up to 240 concurrent \
         connections over 2 servers, plus a serial record_farm_cell per cell" };
    { name = "warm-cache";
      experiments = [ "all-kem"; "all-sig" ];
      cached = true;
      why =
        "Tables 2a and 2b re-run against a filled result cache: nothing is \
         simulated, so time is cache find, record_cell and rendering" } ]

let find_workload name = List.find_opt (fun w -> w.name = name) workloads

type better = Lower | Higher

type metric = {
  m_name : string;
  m_unit : string;
  better : better;
  bound : float option;  (** end-to-end metrics only *)
}

let e2e name unit_ better bound =
  { m_name = name; m_unit = unit_; better; bound = Some bound }

let layer name unit_ better =
  { m_name = name; m_unit = unit_; better; bound = None }

(* Bounds follow the run-to-run spread measured on a shared 2-vCPU VM
   (see README.md): the times are the widest, allocation at one domain
   varies only with the seed. *)
let end_to_end =
  [ e2e "wall_s" "s" Lower 0.25;
    e2e "hs_per_s" "1/s" Higher 0.25;
    e2e "alloc_gb" "GB" Lower 0.20;
    e2e "peak_rss_mb" "MB" Lower 0.20;
    e2e "setup_s" "s" Lower 0.25 ]

let per_layer =
  [ layer "exec.cells" "count" Higher;
    layer "exec.cells_from_cache" "count" Higher;
    layer "exec.cell_wall_p50_ms" "ms" Lower;
    layer "exec.cell_wall_p90_ms" "ms" Lower;
    layer "exec.cell_wall_max_ms" "ms" Lower;
    layer "pool.busy_frac" "ratio" Higher;
    layer "exec.serial_s" "s" Lower;
    layer "experiment.run_spec_s" "s" Lower;
    layer "experiment.handshakes" "count" Higher;
    layer "experiment.run_spec_us_per_hs" "us" Lower;
    layer "metrics.record_cell_s" "s" Lower;
    layer "metrics.record_cell_ms_per_cell" "ms" Lower;
    layer "metrics.dists" "count" Lower;
    layer "metrics.dist_samples" "count" Lower;
    layer "stats.dist_us_n40" "us" Lower;
    layer "stats.dist_us_n200" "us" Lower;
    layer "metrics.serialize_s" "s" Lower;
    layer "metrics.artifact_bytes" "bytes" Lower;
    layer "result_cache.store_s" "s" Lower;
    layer "result_cache.find_s" "s" Lower;
    layer "result_cache.entry_bytes" "bytes" Lower;
    layer "catalog.warm_run_s" "s" Lower;
    layer "report.render_s" "s" Lower;
    layer "netsim.packets" "count" Lower;
    layer "netsim.retransmissions" "count" Lower;
    layer "netsim.cpu_charges" "count" Lower;
    layer "netsim.wire_bytes" "bytes" Lower;
    layer "netsim.engine.event_us" "us" Lower;
    layer "netsim.link.packet_us" "us" Lower;
    layer "netsim.tcp.packet_us" "us" Lower;
    layer "netsim.host.charge_us" "us" Lower;
    layer "model.netsim_s" "s" Lower;
    layer "tls.messages" "count" Lower;
    layer "tls.payload_bytes" "bytes" Lower;
    layer "tls.messages.byte_ns" "ns" Lower;
    layer "tls.transcript.byte_ns" "ns" Lower;
    layer "tls.record.byte_ns" "ns" Lower;
    layer "tls.key_schedule.hs_us" "us" Lower;
    layer "model.tls_s" "s" Lower;
    layer "pqc.kem_ops" "count" Lower;
    layer "pqc.sig_ops" "count" Lower;
    layer "model.pqc_s" "s" Lower;
    layer "trace.events" "count" Lower;
    layer "trace.sink_overhead_frac" "ratio" Lower;
    layer "model.unexplained_s" "s" Lower;
    layer "model.unexplained_frac" "ratio" Lower ]

let run_seconds = 20
let better_name = function Lower -> "lower" | Higher -> "higher"

let benchmark_json () =
  let open Core.Json in
  let metric m =
    Obj
      ([ ("name", String m.m_name);
         ("unit", String m.m_unit);
         ("better", String (better_name m.better)) ]
      @ match m.bound with Some b -> [ ("bound", Float b) ] | None -> [])
  in
  to_string
    (Obj
       [ ("command", List [ String "bash"; String "bench/perf/run.sh" ]);
         ("paths", List [ String "bench/perf" ]);
         ("run_seconds", Int run_seconds);
         ( "workloads",
           List
             (List.map
                (fun w ->
                  Obj [ ("name", String w.name); ("why", String w.why) ])
                workloads) );
         ("end_to_end", List (List.map metric end_to_end));
         ("per_layer", List (List.map metric per_layer)) ])

let list_text () =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    (Printf.sprintf "workloads (closed loop, --jobs 1, %d s per run):\n"
       run_seconds);
  List.iter
    (fun w ->
      Buffer.add_string b
        (Printf.sprintf "  %-11s %-32s %s\n" w.name
           (String.concat " " w.experiments
           ^ if w.cached then " (cached)" else "")
           w.why))
    workloads;
  let section title ms =
    Buffer.add_string b (title ^ ":\n");
    List.iter
      (fun m ->
        Buffer.add_string b
          (Printf.sprintf "  %-32s %-6s %-7s%s\n" m.m_name m.m_unit
             (better_name m.better)
             (match m.bound with
             | Some x -> Printf.sprintf "bound %.2f" x
             | None -> "")))
      ms
  in
  section "end-to-end metrics (--trace 0)" end_to_end;
  section "per-layer metrics (--trace 1)" per_layer;
  Buffer.contents b
