(* Command-line driver mirroring the paper's experiment.py (Appendix B):

     pqtls-bench list
     pqtls-bench list kas --json
     pqtls-bench run all-kem all-sig -o out/
     pqtls-bench handshake --kem kyber768 --sig dilithium3 --scenario lte-m
     pqtls-bench trace kyber512 dilithium2 --format chrome -o trace.json
*)

open Cmdliner

let seed_arg =
  let doc = "Deterministic seed for the whole campaign." in
  Arg.(value & opt string "pqtls" & info [ "seed" ] ~docv:"SEED" ~doc)

let jobs_arg =
  let doc =
    "Domains to shard campaign cells across (results are bit-identical \
     for any value). Defaults to the recommended domain count of this \
     machine."
  in
  Arg.(
    value
    & opt int (Core.Pool.default_jobs ())
    & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let cache_arg =
  let doc =
    "Memoize completed cells in $(docv): re-runs with the same binary, \
     seed and parameters reload instead of re-executing."
  in
  Arg.(value & opt (some string) None & info [ "cache" ] ~docv:"DIR" ~doc)

let quiet_arg =
  Arg.(
    value & flag
    & info [ "q"; "quiet" ] ~doc:"Suppress the per-cell progress lines.")

let keep_going_arg =
  Arg.(
    value & flag
    & info [ "k"; "keep-going" ]
        ~doc:
          "Exit 0 even when cells failed. Reports always render, with \
           failed cells marked; without this flag a failed cell makes the \
           run exit 1.")

(* KA, SA and scenario names: an unknown one is a usage error listing the
   valid names *)
let kem_conv =
  Arg.enum (List.map (fun (k : Pqc.Kem.t) -> (k.name, k)) Pqc.Registry.kems)

let sig_conv =
  Arg.enum
    (List.map (fun (s : Pqc.Sigalg.t) -> (s.name, s)) Pqc.Registry.sigs)

let scenario_arg =
  Arg.(
    value
    & opt
        (enum
           (List.map (fun (s : Core.Scenario.t) -> (s.name, s))
              Core.Scenario.all))
        Core.Scenario.no_emulation
    & info [ "scenario" ] ~docv:"SC"
        ~doc:"Network scenario: none, loss, bandwidth, delay, lte-m, 5g.")

(* ---- list ---------------------------------------------------------------- *)

(* Every registry `list` shows, each a thunk so that listing one builds
   no other: per item, its text line and its JSON fields. *)
let listings =
  let open Core.Json in
  let each xs f () = List.map f xs in
  (* a KA's or an SA's row: level, name, wire sizes and hybrid mark *)
  let alg ~level ~name ~hybrid ~pk (tag, field, bytes) =
    ( Printf.sprintf "L%d %-18s pk %6d B  %s %6d B%s" level name pk tag bytes
        (if hybrid then "  (hybrid)" else ""),
      [ ("name", String name); ("level", Int level); ("hybrid", Bool hybrid);
        ("public_key_bytes", Int pk); (field, Int bytes) ] )
  in
  let chain_level = function
    | Tls.Chain_profile.Leaf_alg -> String "leaf-alg"
    | Tls.Chain_profile.Named n -> String n
  in
  [ ( "experiments",
      each Core.Catalog.names (fun n ->
          let description = Core.Catalog.describe n in
          ( Printf.sprintf "%-22s %s" n description,
            [ ("name", String n);
              ("description", String description);
              ( "aliases",
                List
                  (List.filter_map
                     (fun (a, target) ->
                       if target = n then Some (String a) else None)
                     Core.Catalog.aliases) ) ] )) );
    ( "kas",
      each Pqc.Registry.kems (fun (k : Pqc.Kem.t) ->
          alg ~level:k.level ~name:k.name ~hybrid:k.hybrid
            ~pk:k.public_key_bytes
            ("ct", "ciphertext_bytes", k.ciphertext_bytes)) );
    ( "sas",
      each Pqc.Registry.sigs (fun (s : Pqc.Sigalg.t) ->
          alg ~level:s.level ~name:s.name ~hybrid:s.hybrid
            ~pk:s.public_key_bytes
            ("sig", "signature_bytes", s.signature_bytes)) );
    ( "scenarios",
      each Core.Scenario.all (fun (s : Core.Scenario.t) ->
          let n = s.netem in
          ( Printf.sprintf "%-10s %s" s.name s.label,
            [ ("name", String s.name);
              ("label", String s.label);
              ("loss", Float n.Netsim.Link.loss);
              ( "loss_towards",
                match n.Netsim.Link.loss_towards with
                | None -> Null
                | Some d -> String d );
              ("delay_s", Float n.Netsim.Link.delay_s);
              ("jitter_s", Float n.Netsim.Link.jitter_s);
              ("rate_bps", Float n.Netsim.Link.rate_bps) ] )) );
    ( "workloads",
      each Netsim.Workload.all (fun (w : Netsim.Workload.t) ->
          ( Printf.sprintf "%-12s %-24s %s" w.name w.label w.description,
            [ ("name", String w.name);
              ("label", String w.label);
              ("description", String w.description);
              ("peak", Float w.peak) ] )) );
    ( "mixes",
      each Core.Mix.all (fun (m : Core.Mix.t) ->
          ( Printf.sprintf "%-15s %-18s %s" m.name m.label m.description,
            [ ("name", String m.name);
              ("label", String m.label);
              ("resumed", Float m.resumed);
              ("early_data", Bool m.early_data);
              ("description", String m.description) ] )) );
    ( "chains",
      each Tls.Chain_profile.all (fun (p : Tls.Chain_profile.t) ->
          let depth = Tls.Chain_profile.depth p in
          ( Printf.sprintf "%-16s %-14s depth %d  %s" p.name p.label depth
              p.description,
            [ ("name", String p.name);
              ("label", String p.label);
              ("depth", Int depth);
              ("intermediates", List (List.map chain_level p.intermediates));
              ("root", chain_level p.root);
              ("description", String p.description) ] )) );
    ( "ops",
      fun () ->
        List.map
          (fun (o : Core.Profile.op) ->
            let group = Core.Profile.group_name o.op_group in
            ( Printf.sprintf "%-7s %-28s %d x %-3d  warmup %d" group o.op_name
                o.op_samples o.op_batch o.op_warmup,
              [ ("name", String o.op_name);
                ("group", String group);
                ("alg", String o.op_alg);
                ("kind", String o.op_kind);
                ("samples", Int o.op_samples);
                ("batch", Int o.op_batch);
                ("warmup", Int o.op_warmup) ] ))
          (Core.Profile.registry ()) ) ]

let list_cmd =
  let what_arg =
    let names = List.map fst listings in
    Arg.(
      value
      & pos 0 (enum (List.map (fun n -> (n, n)) names)) (List.hd names)
      & info [] ~docv:"WHAT"
          ~doc:
            ("What to list: "
            ^ String.concat ", " (List.map (Printf.sprintf "$(b,%s)") names)
            ^ ". $(b,ops) is the registry $(b,profile) measures."))
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the listing as JSON (stable field order) for scripts.")
  in
  let run what json =
    let items = List.assoc what listings () in
    if json then
      print_string
        Core.Json.(to_string (List (List.map (fun (_, f) -> Obj f) items)))
    else List.iter (fun (line, _) -> print_endline line) items
  in
  Cmd.v
    (Cmd.info "list"
       ~doc:
         "List the available experiments (Appendix B.6 schema), key \
          agreements and signature algorithms with their wire sizes, \
          network scenarios, farm arrival workloads, resumption workload \
          mixes, certificate chain profiles, or profiled primitives; \
          $(b,--json) emits a machine-readable listing.")
    Term.(const run $ what_arg $ json_arg)

(* ---- run ----------------------------------------------------------------- *)

let run_cmd =
  (* every name is checked before any cell runs: an unknown one is a
     usage error listing the valid names *)
  let experiments =
    let doc = "Experiments to run (see $(b,list))." in
    let names = Core.Catalog.names @ List.map fst Core.Catalog.aliases in
    let names = Arg.enum (List.map (fun n -> (n, n)) names) in
    Arg.(non_empty & pos_all names [] & info [] ~docv:"EXPERIMENT" ~doc)
  in
  let out_dir =
    let doc = "Write each experiment's report to $(docv)/<name>.txt instead of stdout." in
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"DIR" ~doc)
  in
  let trace_out =
    let doc =
      "Record a virtual-time trace of every executed cell and write it \
       as Chrome trace-event JSON to $(docv) (open in Perfetto or \
       chrome://tracing). Cells served from the cache appear empty."
    in
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)
  in
  let metrics_out =
    let doc =
      "Write the machine-readable campaign artifact (per-cell latency \
       and wire distributions, retransmit and CPU counters) to $(docv) \
       as versioned JSON. Byte-identical for any $(b,--jobs) and for \
       cached vs fresh cells; feed it to $(b,compare)."
    in
    Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)
  in
  let run seed jobs cache_dir quiet keep_going out_dir trace_out metrics_out
      experiments =
    let store = Option.map (fun _ -> Trace.Store.create ()) trace_out in
    (* fault injection for tests and CI; unset or empty injects nothing *)
    let fail_cell =
      match Sys.getenv_opt "PQTLS_FAIL_CELL" with
      | None | Some "" -> None
      | needle -> needle
    in
    let exec =
      Core.Exec.create ~jobs ?cache_dir ~progress:(not quiet) ?fail_cell
        ?trace:store ()
    in
    List.iter
      (fun name ->
        Core.Metrics.note_experiment exec.Core.Exec.metrics
          (Core.Catalog.resolve name);
        if not quiet then
          Printf.eprintf "==> %s (%d jobs%s)\n%!" name exec.Core.Exec.jobs
            (match cache_dir with
            | Some d -> ", cache " ^ d
            | None -> "");
        let report = Core.Catalog.run ~seed ~exec name in
        match out_dir with
        | None -> print_string report
        | Some dir ->
          if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
          let path = Filename.concat dir (Core.Catalog.resolve name ^ ".txt") in
          let oc = open_out path in
          output_string oc report;
          close_out oc;
          Printf.printf "wrote %s\n%!" path)
      experiments;
    (match (trace_out, store) with
    | Some path, Some store ->
      let oc = open_out path in
      output_string oc (Trace.Export.chrome (Trace.Store.cells store));
      close_out oc;
      Printf.eprintf "wrote %s (%d cells, %d events)\n%!" path
        (Trace.Store.length store)
        (Trace.Store.total_events store)
    | _ -> ());
    (match metrics_out with
    | None -> ()
    | Some path ->
      let artifact = Core.Metrics.artifact exec.Core.Exec.metrics ~seed in
      let oc = open_out path in
      output_string oc (Core.Metrics.to_json_string artifact);
      close_out oc;
      (* the notice goes to stderr: stdout stays bit-identical *)
      Printf.eprintf "wrote %s (%d cells)\n%!" path
        (List.length artifact.Core.Metrics.a_cells
        + List.length artifact.Core.Metrics.a_farm_cells));
    (* the health summary goes to stderr: stdout stays bit-identical
       across --jobs and runs *)
    let failed = Core.Exec.failed_count exec in
    if (not quiet) || failed > 0 then
      Printf.eprintf "%s\n%!" (Core.Exec.health_summary exec);
    if failed > 0 && not keep_going then exit 1
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Run named experiments (60 virtual seconds per configuration), \
          sharded across domains with $(b,--jobs) and memoized with \
          $(b,--cache). Each cell runs once; a failing cell is marked in \
          the rendered report, and $(b,--keep-going) makes such runs \
          exit 0.")
    Term.(
      const run $ seed_arg $ jobs_arg $ cache_arg $ quiet_arg $ keep_going_arg
      $ out_dir $ trace_out $ metrics_out $ experiments)

(* ---- compare --------------------------------------------------------------- *)

let compare_cmd =
  let files =
    let doc =
      "Campaign artifacts written by $(b,run --metrics), or profile \
       artifacts written by $(b,profile --format json)."
    in
    Arg.(non_empty & pos_all file [] & info [] ~docv:"ARTIFACT" ~doc)
  in
  let against_paper_arg =
    Arg.(
      value & flag
      & info [ "against-paper" ]
          ~doc:
            "Judge each campaign artifact's standard cells against the \
             embedded paper tables (2a/2b medians, bytes and handshake \
             rates; 4a/4b scenario medians) instead of diffing two \
             artifacts.")
  in
  let rel_tol_arg =
    let doc =
      "Per-metric relative tolerance for artifact diffs, as a fraction. \
       Defaults from the schema: 0 (bit-exact, every leaf) for campaign \
       artifacts, 0.25 on the median time and minor allocation rate of \
       profiles."
    in
    Arg.(
      value & opt (some float) None & info [ "rel-tol" ] ~docv:"FRACTION" ~doc)
  in
  let run against_paper rel_tol files =
    let fail msg =
      Printf.eprintf "error: %s\n" msg;
      exit 2
    in
    let load path =
      let ic = open_in_bin path in
      let contents = really_input_string ic (in_channel_length ic) in
      close_in ic;
      match Core.Metrics.of_json_string contents with
      | Ok a -> a
      | Error e -> fail (path ^ ": " ^ e)
    in
    let show path issues ok_line =
      if issues = [] then print_endline ok_line
      else begin
        Printf.printf "%s: %d issue%s:\n" path (List.length issues)
          (if List.length issues = 1 then "" else "s");
        List.iter (fun i -> Printf.printf "  %s\n" i) issues
      end;
      issues <> []
    in
    let drifted =
      if against_paper then
        List.fold_left
          (fun acc path ->
            let a = load path in
            let checked, issues =
              try Core.Metrics.against_paper a
              with Invalid_argument e -> fail (path ^ ": " ^ e)
            in
            (* an artifact with no comparable cell (farm cells, mixes,
               non-standard cells) has nothing to pass: the gate fails
               rather than passing vacuously *)
            let drift =
              if checked = 0 then begin
                Printf.printf
                  "%s: no cell was comparable to the paper tables\n" path;
                true
              end
              else
                show path issues
                  (Printf.sprintf "%s: %d paper comparison%s ok" path checked
                     (if checked = 1 then "" else "s"))
            in
            acc || drift)
          false files
      else
        match files with
        | [ base; cand ] ->
          let b = load base in
          let issues =
            try Core.Metrics.diff ?rel_tol b (load cand)
            with Invalid_argument e -> fail (base ^ " vs " ^ cand ^ ": " ^ e)
          in
          show (base ^ " vs " ^ cand) issues
            (Printf.sprintf "%s and %s agree (%d %s)" base cand
               (List.length b.Core.Metrics.p_rows)
               (if b.Core.Metrics.p_schema = Core.Metrics.schema_version
                then "cells"
                else "ops"))
        | _ ->
          fail
            "compare takes exactly two artifacts (or any number with \
             --against-paper)"
    in
    if drifted then exit 1
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:
         "Diff two artifacts of one schema row by row — campaign \
          artifacts cell by cell, profiles op by op — or gate campaign \
          artifacts against the paper's tables with \
          $(b,--against-paper). Exits 1 on drift, 2 on unreadable \
          artifacts or artifacts of different schemas. Profile timings \
          are machine-dependent: only compare profiles from comparable \
          machines.")
    Term.(const run $ against_paper_arg $ rel_tol_arg $ files)

(* ---- handshake ------------------------------------------------------------ *)

let handshake_cmd =
  let kem_arg =
    Arg.(value & opt kem_conv (Pqc.Registry.find_kem "kyber768")
         & info [ "kem" ] ~docv:"KA"
             ~doc:"Key agreement (paper spelling, e.g. p256_kyber512).")
  in
  let sig_arg =
    Arg.(value & opt sig_conv (Pqc.Registry.find_sig "dilithium3")
         & info [ "sig" ] ~docv:"SA"
             ~doc:"Signature algorithm (e.g. rsa:2048, p384_dilithium3).")
  in
  let real_arg =
    Arg.(value & flag & info [ "real" ]
           ~doc:"Run the real cryptography instead of the size-exact mocks.")
  in
  let default_buffering_arg =
    Arg.(value & flag & info [ "default-buffering" ]
           ~doc:"Use OpenSSL's stock flight buffering instead of the optimized push.")
  in
  let pcap_arg =
    Arg.(value & opt (some string) None & info [ "pcap" ] ~docv:"FILE"
           ~doc:"Also capture a single handshake to a pcap file (opens in Wireshark).")
  in
  let run seed kem sig_alg scenario real default_buffering pcap =
    let buffering =
      if default_buffering then Tls.Config.Default_buffered
      else Tls.Config.Optimized_push
    in
    (* a one-cell campaign: the numbers are the cell's summary, as the
       reports and the metrics artifact read them *)
    let spec =
      Core.Experiment.spec ~seed ~scenario ~buffering ~real_crypto:real kem
        sig_alg
    in
    let (d : Core.Metrics.cell_data) =
      match Core.Exec.cells (Core.Exec.create ~jobs:1 ()) [ spec ] with
      | [ Ok d ] -> d
      | r ->
        List.iter (Result.iter_error (Printf.eprintf "error: %s\n")) r;
        exit 1
    in
    Printf.printf
      "%s x %s under %s (%s crypto, %s buffering)\n\
      \  CH->SH            %8.3f ms\n\
      \  SH->ClientFin     %8.3f ms\n\
      \  total             %8.3f ms\n\
      \  handshakes / 60s  %8d\n\
      \  client sent       %8d B   server sent %8d B\n\
      \  CPU / handshake   client %.2f ms, server %.2f ms\n"
      kem.Pqc.Kem.name sig_alg.Pqc.Sigalg.name scenario.Core.Scenario.label
      (if real then "real" else "mocked")
      (if default_buffering then "default" else "optimized")
      d.cd_part_a.d_p50 d.cd_part_b.d_p50 d.cd_total.d_p50
      d.cd_handshakes_per_minute
      (int_of_float d.cd_client_bytes.d_p50)
      (int_of_float d.cd_server_bytes.d_p50)
      d.cd_client_cpu_ms d.cd_server_cpu_ms;
    List.iter
      (fun (lib, share) ->
        if share >= 0.005 then
          Printf.printf "    server %-10s %4.0f%%\n" lib (100. *. share))
      d.cd_server_ledger;
    match pcap with
    | None -> ()
    | Some path ->
      (* re-run a single handshake with a fresh tap and dump it *)
      let engine = Netsim.Engine.create () in
      let trace = Netsim.Tap.create () in
      let rng = Crypto.Drbg.create ~seed:(seed ^ "/pcap") in
      let link =
        Netsim.Link.create engine (Crypto.Drbg.fork rng "link")
          scenario.Core.Scenario.netem
          ~tap:(fun t p -> Netsim.Tap.tap trace t p)
      in
      let ch = Netsim.Host.create engine ~name:"client" in
      let sh = Netsim.Host.create engine ~name:"server" in
      let config =
        (if real then Tls.Config.make else Tls.Config.mocked) ~buffering kem
          sig_alg
      in
      Tls.Handshake.run ~engine ~link ~tcp_config:Netsim.Tcp.default_config
        ~client_host:ch ~server_host:sh ~config ~rng ~on_done:(fun _ -> ()) ();
      Netsim.Engine.run engine;
      Netsim.Pcap.write_file path trace;
      Printf.printf "wrote %s (%d packets)\n" path (Netsim.Tap.length trace)
  in
  Cmd.v
    (Cmd.info "handshake"
       ~doc:"Measure one KA x SA pair and print the full breakdown.")
    Term.(
      const run $ seed_arg $ kem_arg $ sig_arg $ scenario_arg $ real_arg
      $ default_buffering_arg $ pcap_arg)

(* ---- trace ----------------------------------------------------------------- *)

let trace_cmd =
  let kem_arg =
    Arg.(
      required
      & pos 0 (some kem_conv) None
      & info [] ~docv:"KA"
          ~doc:"Key agreement (paper spelling, e.g. p256_kyber512).")
  in
  let sig_arg =
    Arg.(
      required
      & pos 1 (some sig_conv) None
      & info [] ~docv:"SA"
          ~doc:"Signature algorithm (e.g. rsa:2048, dilithium2).")
  in
  let format_arg =
    let formats =
      [ ("chrome", `Chrome); ("folded", `Folded); ("timeline", `Timeline);
        ("table", `Table) ]
    in
    Arg.(
      value
      & opt (enum formats) `Chrome
      & info [ "format" ] ~docv:"FMT"
          ~doc:
            "Output format: $(b,chrome) (trace-event JSON for \
             Perfetto/chrome://tracing), $(b,folded) (folded stacks for \
             flamegraph.pl / speedscope), $(b,timeline) (plain-text \
             chronological listing), or $(b,table) (trace-derived \
             Table 3 CPU shares cross-checked against the white-box \
             ledger).")
  in
  let out_arg =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Write the export to $(docv) instead of stdout.")
  in
  let run seed kem sig_alg scenario format out =
    let spec = Core.Experiment.spec ~seed ~scenario kem sig_alg in
    let buf = Trace.Buf.create ~label:(Core.Experiment.spec_label spec) () in
    let outcome = Core.Experiment.run_spec ~trace:buf spec in
    let contents =
      match format with
      | `Chrome -> Trace.Export.chrome [ buf ]
      | `Folded -> Trace.Export.folded [ buf ]
      | `Timeline -> Trace.Export.timeline [ buf ]
      | `Table ->
        Core.Whitebox.render_trace_checks
          ("Trace-derived CPU shares vs white-box ledger: "
          ^ Core.Experiment.spec_label spec)
          (Core.Whitebox.trace_checks outcome buf)
    in
    match out with
    | None -> print_string contents
    | Some path ->
      let oc = open_out path in
      output_string oc contents;
      close_out oc;
      Printf.eprintf "wrote %s (%d events)\n%!" path (Trace.Buf.length buf)
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Trace one KA x SA cell in virtual time: handshake phases, \
          per-message spans, per-operation crypto costs, TCP transmit / \
          retransmit instants, cwnd counters and wire occupancy, \
          exported for Perfetto, flamegraphs, or plain text.")
    Term.(
      const run $ seed_arg $ kem_arg $ sig_arg $ scenario_arg $ format_arg
      $ out_arg)

(* ---- profile --------------------------------------------------------------- *)

let profile_cmd =
  let ops_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "ops" ] ~docv:"FILTER"
          ~doc:
            "Only measure ops whose $(b,group:name) contains $(docv) \
             (e.g. $(b,kyber512), $(b,sign), $(b,kernel:)); see \
             $(b,list ops).")
  in
  let format_arg =
    let formats = [ ("table", `Table); ("json", `Json); ("folded", `Folded) ] in
    Arg.(
      value
      & opt (enum formats) `Table
      & info [ "format" ] ~docv:"FMT"
          ~doc:
            "Output format: $(b,table) (per-op stats plus the virtual vs \
             real attribution table), $(b,json) (the versioned \
             pqtls-bench-profile artifact), or $(b,folded) (folded \
             stacks weighted by median real time, for flamegraph.pl / \
             speedscope).")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write the output to $(docv) instead of stdout.")
  in
  let run seed ops format out =
    let artifact =
      try Core.Profile.run ?ops_filter:ops ~seed ()
      with Invalid_argument msg ->
        Printf.eprintf "error: %s\n" msg;
        exit 2
    in
    let contents =
      match format with
      | `Table -> Core.Profile.render_table artifact
      | `Json -> Core.Profile.to_json_string artifact
      | `Folded -> Core.Profile.folded artifact
    in
    match out with
    | None -> print_string contents
    | Some path ->
      let oc = open_out path in
      output_string oc contents;
      close_out oc;
      Printf.eprintf "wrote %s (%d ops)\n%!" path
        (List.length artifact.Core.Profile.pa_ops)
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Micro-benchmark the real pure-OCaml substrates in host time: \
          per-KA keygen/encaps/decaps, per-SA keygen/sign/verify and the \
          shared kernels (Keccak permutation, NTTs, HKDF, SHA-256), with \
          robust per-op statistics, GC allocation deltas, and a \
          campaign-attribution table mapping each virtual-cost bucket to \
          measured real milliseconds, one op at a time on one domain. \
          Values are machine-dependent by design; the artifact's shape is \
          deterministic.")
    Term.(const run $ seed_arg $ ops_arg $ format_arg $ out_arg)

let () =
  let info =
    Cmd.info "pqtls-bench"
      ~doc:"Reproduction harness for `The Performance of Post-Quantum TLS 1.3'"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ list_cmd; run_cmd; compare_cmd; handshake_cmd; trace_cmd;
            profile_cmd ]))
