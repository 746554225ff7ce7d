(* The tracing subsystem: buffer semantics, exporter determinism across
   [--jobs], zero interference with campaign outputs, Chrome JSON
   shape, span nesting, and the trace-vs-ledger Table 3 cross-check. *)

let spec_of ?(duration_s = 4.) ?(max_samples = 4) ~seed (k, s) =
  Core.Experiment.spec ~seed ~duration_s ~max_samples
    (Pqc.Registry.find_kem k) (Pqc.Registry.find_sig s)

let small_grid ~seed =
  List.map (spec_of ~seed)
    [ ("kyber512", "dilithium2"); ("x25519", "rsa:2048");
      ("kyber768", "dilithium3"); ("bikel1", "dilithium2") ]

(* ---- buffer semantics ---------------------------------------------------- *)

let test_buf_basics () =
  let b = Trace.Buf.create ~label:"cell" () in
  Alcotest.(check string) "label" "cell" (Trace.Buf.label b);
  Trace.Buf.span b ~track:"t" ~cat:"cpu" ~name:"op" 1. 2.;
  Trace.Buf.instant b ~track:"t" ~cat:"tcp" ~name:"tx" 1.5;
  Trace.Buf.counter b ~track:"t" ~name:"cwnd" 1.6 10.;
  Alcotest.(check int) "three events" 3 (Trace.Buf.length b);
  Trace.Buf.clear b;
  Alcotest.(check int) "clear empties" 0 (Trace.Buf.length b)

let test_buf_open_spans () =
  let b = Trace.Buf.create () in
  Trace.Buf.begin_span b ~track:"a" ~cat:"message" ~name:"outer" 1.;
  Trace.Buf.begin_span b ~track:"a" ~cat:"message" ~name:"inner" 2.;
  Trace.Buf.begin_span b ~track:"z" ~cat:"message" ~name:"other" 2.5;
  Trace.Buf.end_span b ~track:"a" 3.;
  Trace.Buf.end_span b ~track:"a" 4.;
  Trace.Buf.end_span b ~track:"z" 5.;
  Trace.Buf.end_span b ~track:"a" 9.;
  (* unmatched: ignored *)
  let spans =
    List.filter_map
      (function Trace.Event.Span s -> Some s | _ -> None)
      (Trace.Buf.events b)
  in
  let find name = List.find (fun s -> s.Trace.Event.s_name = name) spans in
  Alcotest.(check int) "three spans" 3 (List.length spans);
  Alcotest.(check (pair (float 0.) (float 0.)))
    "inner closed first (LIFO)" (2., 3.)
    ((find "inner").Trace.Event.s_begin, (find "inner").Trace.Event.s_end);
  Alcotest.(check (pair (float 0.) (float 0.)))
    "outer closed second" (1., 4.)
    ((find "outer").Trace.Event.s_begin, (find "outer").Trace.Event.s_end);
  Alcotest.(check (pair (float 0.) (float 0.)))
    "tracks keep separate stacks" (2.5, 5.)
    ((find "other").Trace.Event.s_begin, (find "other").Trace.Event.s_end)

(* ---- tracing never changes results --------------------------------------- *)

let test_outcome_unchanged_by_tracing () =
  let sp = spec_of ~seed:"trace-inert" ("kyber512", "dilithium2") in
  let plain = Core.Experiment.run_spec sp in
  let buf = Trace.Buf.create () in
  let traced = Core.Experiment.run_spec ~trace:buf sp in
  Alcotest.(check bool) "outcome identical with tracing on" true
    (plain = traced);
  Alcotest.(check bool) "trace actually recorded" true
    (Trace.Buf.length buf > 0)

let test_report_unchanged_by_tracing () =
  (* a whole catalog campaign renders byte-identically with a trace
     store attached *)
  let plain = Core.Catalog.run ~seed:"tt" ~exec:(Core.Exec.sequential ()) "level5-perf" in
  let store = Trace.Store.create () in
  let exec = Core.Exec.create ~jobs:1 ~trace:store () in
  let traced = Core.Catalog.run ~seed:"tt" ~exec "level5-perf" in
  Alcotest.(check string) "report bytes identical under tracing" plain traced;
  Alcotest.(check int) "one cell traced" 1 (Trace.Store.length store);
  Alcotest.(check bool) "events recorded" true (Trace.Store.total_events store > 0)

(* ---- determinism across jobs --------------------------------------------- *)

let trace_grid ~jobs ~seed =
  let store = Trace.Store.create () in
  let exec = Core.Exec.create ~jobs ~trace:store () in
  let results = Core.Exec.cells exec (small_grid ~seed) in
  (store, results)

let test_jobs_determinism () =
  let store1, r1 = trace_grid ~jobs:1 ~seed:"trace-jobs" in
  let store4, r4 = trace_grid ~jobs:4 ~seed:"trace-jobs" in
  Alcotest.(check bool) "outcomes identical across jobs" true (r1 = r4);
  let c1 = Trace.Store.cells store1 and c4 = Trace.Store.cells store4 in
  Alcotest.(check string) "chrome export byte-identical"
    (Trace.Export.chrome c1) (Trace.Export.chrome c4);
  Alcotest.(check string) "folded export byte-identical"
    (Trace.Export.folded c1) (Trace.Export.folded c4);
  Alcotest.(check string) "timeline export byte-identical"
    (Trace.Export.timeline c1) (Trace.Export.timeline c4)

(* ---- Chrome JSON shape ---------------------------------------------------- *)

let traced_cell ~seed =
  let sp = spec_of ~seed ("kyber512", "dilithium2") in
  let buf = Trace.Buf.create ~label:(Core.Experiment.spec_label sp) () in
  let outcome = Core.Experiment.run_spec ~trace:buf sp in
  (outcome, buf)

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let test_chrome_shape () =
  let _, buf = traced_cell ~seed:"trace-json" in
  let json = Trace.Export.chrome [ buf ] in
  Alcotest.(check bool) "object prefix" true
    (String.length json > 16 && String.sub json 0 16 = "{\"traceEvents\":[");
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("contains " ^ needle) true (contains ~needle json))
    [ "\"ph\":\"M\""; "\"ph\":\"X\""; "\"ph\":\"i\""; "\"ph\":\"C\"";
      "process_name"; "thread_name"; "\"displayTimeUnit\":\"ms\"";
      "kyber512 x dilithium2" ];
  Alcotest.(check bool) "no NaN leaks into JSON" false (contains ~needle:"nan" json);
  let count ch = String.fold_left (fun n c -> if c = ch then n + 1 else n) 0 json in
  Alcotest.(check int) "balanced braces" (count '{') (count '}');
  Alcotest.(check int) "balanced brackets" (count '[') (count ']')

(* ---- span nesting --------------------------------------------------------- *)

let test_span_nesting () =
  let _, buf = traced_cell ~seed:"trace-nest" in
  let spans =
    List.filter_map
      (function Trace.Event.Span s -> Some s | _ -> None)
      (Trace.Buf.events buf)
  in
  let by cat track =
    List.filter
      (fun s -> s.Trace.Event.s_cat = cat && s.Trace.Event.s_track = track)
      spans
  in
  let contained inner outer =
    outer.Trace.Event.s_begin <= inner.Trace.Event.s_begin
    && inner.Trace.Event.s_end <= outer.Trace.Event.s_end
  in
  List.iter
    (fun track ->
      let handshakes = by "handshake" track in
      let messages = by "message" track in
      Alcotest.(check bool) (track ^ " has handshake spans") true
        (handshakes <> []);
      Alcotest.(check bool) (track ^ " has message spans") true (messages <> []);
      (* every message span sits inside one of its side's handshake
         spans; crypto cpu spans that belong to a message nest inside it *)
      List.iter
        (fun m ->
          Alcotest.(check bool)
            (Printf.sprintf "%s message %s inside a handshake" track
               m.Trace.Event.s_name)
            true
            (List.exists (contained m) handshakes))
        messages;
      let cpus = by "cpu" track in
      (* the single-core host serializes charges: cpu spans on one track
         never overlap *)
      let sorted =
        List.sort
          (fun a b -> compare a.Trace.Event.s_begin b.Trace.Event.s_begin)
          cpus
      in
      let rec disjoint = function
        | a :: (b :: _ as rest) ->
          a.Trace.Event.s_end <= b.Trace.Event.s_begin +. 1e-12 && disjoint rest
        | _ -> true
      in
      Alcotest.(check bool) (track ^ " cpu spans serialized") true
        (disjoint sorted))
    [ "client"; "server" ]

(* ---- Table 3 cross-check -------------------------------------------------- *)

let test_table3_crosscheck () =
  (* full-length cell: the trace-derived per-library CPU shares must
     reproduce the white-box ledger (both record the same charges) *)
  let sp =
    Core.Experiment.spec ~seed:"whitebox-trace"
      (Pqc.Registry.find_kem "kyber512")
      (Pqc.Registry.find_sig "dilithium2")
  in
  let buf = Trace.Buf.create ~label:(Core.Experiment.spec_label sp) () in
  let outcome = Core.Experiment.run_spec ~trace:buf sp in
  let checks = Core.Whitebox.trace_checks outcome buf in
  Alcotest.(check bool) "both sides compared" true
    (List.exists (fun c -> c.Core.Whitebox.tc_side = "client") checks
    && List.exists (fun c -> c.Core.Whitebox.tc_side = "server") checks);
  let delta = Core.Whitebox.max_trace_delta checks in
  if delta >= 0.01 then
    Alcotest.failf "trace disagrees with whitebox ledger by %.4f:\n%s" delta
      (Core.Whitebox.render_trace_checks "cross-check" checks)

let suites =
  [ ( "trace",
      [ Alcotest.test_case "buf basics" `Quick test_buf_basics;
        Alcotest.test_case "buf open-span stacks" `Quick test_buf_open_spans;
        Alcotest.test_case "outcome unchanged by tracing" `Quick
          test_outcome_unchanged_by_tracing;
        Alcotest.test_case "report unchanged by tracing" `Quick
          test_report_unchanged_by_tracing;
        Alcotest.test_case "exports identical across jobs" `Quick
          test_jobs_determinism;
        Alcotest.test_case "chrome JSON shape" `Quick test_chrome_shape;
        Alcotest.test_case "span nesting" `Quick test_span_nesting;
        Alcotest.test_case "table 3 trace cross-check" `Quick
          test_table3_crosscheck ] ) ]
