(* The real-time profiling subsystem: the artifact's deterministic
   shape (op registry, iteration plans, leaf names, attribution counts)
   must be identical across job counts and runs, its measured values
   must be sane (positive timings, strictly positive keygen allocation
   rates), the JSON must round-trip through the strict artifact reader
   ([Metrics.of_json_string]), and the one differ ([Metrics.diff]) must
   catch shape changes and drift while accepting agreement. The
   wall-clock quarantine itself is proven by the lint suite
   (test_lint.ml), which runs repo-wide. *)

open Core

(* measuring every op takes minutes (SPHINCS+ signs run seconds each in
   pure OCaml); tests measure a cheap subset and assert the expensive
   invariants — full-registry coverage — statically on the plan alone *)
let cheap = "kyber512"

let test_registry_coverage () =
  let ops = Profile.registry () in
  let names = List.map (fun o -> o.Profile.op_name) ops in
  Alcotest.(check int) "no duplicate op names"
    (List.length names)
    (List.length (List.sort_uniq String.compare names));
  List.iter
    (fun (k : Pqc.Kem.t) ->
      List.iter
        (fun kind ->
          let n = kind ^ " " ^ k.name in
          Alcotest.(check bool) (n ^ " present") true (List.mem n names))
        [ "keygen"; "encaps"; "decaps" ])
    Pqc.Registry.kems;
  List.iter
    (fun (s : Pqc.Sigalg.t) ->
      List.iter
        (fun kind ->
          let n = kind ^ " " ^ s.name in
          Alcotest.(check bool) (n ^ " present") true (List.mem n names))
        [ "keygen"; "sign"; "verify" ])
    Pqc.Registry.sigs;
  let kernels =
    List.filter (fun o -> o.Profile.op_group = Profile.Kernel) ops
  in
  Alcotest.(check bool) "at least 3 substrate kernels" true
    (List.length kernels >= 3);
  List.iter
    (fun o ->
      Alcotest.(check bool)
        (o.Profile.op_name ^ " has a sane plan")
        true
        (o.Profile.op_samples > 0 && o.Profile.op_batch > 0
        && o.Profile.op_batch <= 256 && o.Profile.op_warmup >= 0))
    ops

(* every profile test reads the artifact back through the one strict
   reader *)
let parse s =
  match Metrics.of_json_string s with
  | Ok p -> p
  | Error e -> Alcotest.fail ("profile artifact does not parse: " ^ e)

let test_shape_determinism () =
  let run jobs = Profile.run ~jobs ~ops_filter:cheap ~seed:"profile-test" () in
  (* the parsed rows' ids and leaf names, then the attribution rows
     without their measured column *)
  let shape a =
    List.concat_map
      (fun r -> r.Metrics.p_id :: List.map fst r.Metrics.p_leaves)
      (parse (Profile.to_json_string a)).Metrics.p_rows
    @ List.map
        (fun r ->
          Printf.sprintf "%s %s %d %h" r.Profile.at_lib r.Profile.at_op
            r.Profile.at_count r.Profile.at_virtual_ms)
        a.Profile.pa_attribution
  in
  Alcotest.(check (list string)) "shape is identical for jobs 1 vs 4"
    (shape (run 1)) (shape (run 4))

let test_measured_sanity () =
  let a = Profile.run ~ops_filter:cheap ~seed:"profile-test" () in
  Alcotest.(check bool) "filter matched something" true (a.Profile.pa_ops <> []);
  List.iter
    (fun (m : Profile.measured) ->
      let d = m.Profile.p_time in
      Alcotest.(check bool)
        (m.Profile.p_op.Profile.op_name ^ " timed positive")
        true
        (d.Metrics.d_p50 > 0. && d.Metrics.d_p5 <= d.Metrics.d_p95);
      if m.Profile.p_op.Profile.op_kind = "keygen" then
        Alcotest.(check bool)
          (m.Profile.p_op.Profile.op_name ^ " allocates")
          true
          (m.Profile.p_gc.Profile.g_minor_words > 0.))
    a.Profile.pa_ops;
  Alcotest.(check bool) "attribution table is populated" true
    (List.length a.Profile.pa_attribution > 5);
  List.iter
    (fun (r : Profile.attr_row) ->
      Alcotest.(check bool)
        (r.Profile.at_op ^ " attribution row is sane")
        true
        (r.Profile.at_count > 0 && r.Profile.at_virtual_ms >= 0.))
    a.Profile.pa_attribution

let test_json_roundtrip () =
  let a = Profile.run ~ops_filter:cheap ~seed:"profile-test" () in
  let p = parse (Profile.to_json_string a) in
  Alcotest.(check string) "seed survives" "profile-test" p.Metrics.p_seed;
  Alcotest.(check int) "every op survives"
    (List.length a.Profile.pa_ops)
    (List.length p.Metrics.p_rows);
  let m = List.hd a.Profile.pa_ops and r = List.hd p.Metrics.p_rows in
  let o = m.Profile.p_op in
  Alcotest.(check string) "op order survives"
    (Printf.sprintf "op %S (%s/%s/%s, %dx%d warmup %d)" o.Profile.op_name
       (Profile.group_name o.Profile.op_group)
       o.Profile.op_alg o.Profile.op_kind o.Profile.op_samples
       o.Profile.op_batch o.Profile.op_warmup)
    r.Metrics.p_id;
  Alcotest.(check (option (float 1e-9))) "p50 survives exactly"
    (Some m.Profile.p_time.Metrics.d_p50)
    (List.assoc_opt "time_ms.p50" r.Metrics.p_leaves);
  Alcotest.(check (option (float 1e-9))) "gc leaves survive"
    (Some m.Profile.p_gc.Profile.g_minor_words)
    (List.assoc_opt "gc.minor_words" r.Metrics.p_leaves);
  (* self-comparison is clean at zero tolerance *)
  Alcotest.(check (list string)) "diff against itself is clean" []
    (Metrics.diff ~rel_tol:0. p p)

let test_diff_catches_changes () =
  let a = Profile.run ~ops_filter:cheap ~seed:"profile-test" () in
  let p = parse (Profile.to_json_string a) in
  let bump_p50 (r : Metrics.p_row) =
    { r with
      Metrics.p_leaves =
        List.map
          (fun (k, v) -> if k = "time_ms.p50" then (k, v *. 2.) else (k, v))
          r.Metrics.p_leaves }
  in
  let drifted =
    { p with Metrics.p_rows = List.map bump_p50 p.Metrics.p_rows }
  in
  Alcotest.(check bool) "2x median drift beyond 25% tolerance is flagged" true
    (Metrics.diff p drifted <> []);
  Alcotest.(check (list string)) "2x drift within 200% tolerance passes" []
    (Metrics.diff ~rel_tol:2. p drifted);
  let replanned =
    parse
      (Profile.to_json_string
         { a with
           Profile.pa_ops =
             List.map
               (fun (m : Profile.measured) ->
                 { m with
                   Profile.p_op =
                     { m.Profile.p_op with
                       Profile.op_batch = m.Profile.p_op.Profile.op_batch + 1 }
                 })
               a.Profile.pa_ops })
  in
  Alcotest.(check bool) "iteration-plan changes are issues at any tolerance"
    true
    (Metrics.diff ~rel_tol:10. p replanned <> []);
  let missing = { p with Metrics.p_rows = List.tl p.Metrics.p_rows } in
  Alcotest.(check bool) "a vanished op is an issue" true
    (Metrics.diff ~rel_tol:10. p missing <> []);
  (match Metrics.of_json_string "{\"schema\": \"bogus/9\"}" with
  | Ok _ -> Alcotest.fail "bogus schema accepted"
  | Error _ -> ());
  (* the reader is strict: every field the gate reads is required *)
  let rejects what field s =
    match Metrics.of_json_string s with
    | Ok _ -> Alcotest.failf "%s accepted" what
    | Error e ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: error %S names %s" what e field)
        true
        (let n = String.length field in
         let rec go i =
           i + n <= String.length e && (String.sub e i n = field || go (i + 1))
         in
         go 0)
  in
  rejects "a profile with no ops" "ops"
    "{\"schema\": \"pqtls-bench-profile/1\", \"seed\": \"s\"}";
  let one_op name =
    Printf.sprintf
      "{\"schema\": \"pqtls-bench-profile/1\", \"seed\": \"s\", \"ops\": \
       [{\"name\": %s, \"group\": \"ka\", \"alg\": \"a\", \"kind\": \
       \"keygen\", \"samples\": 1, \"batch\": 1, \"warmup\": 0, \
       \"time_ms\": {\"p50\": 1.0}, \"gc\": {\"minor_words\": 2.0}}]}"
      name
  in
  Alcotest.(check int) "a well-formed op parses" 1
    (List.length (parse (one_op "\"keygen a\"")).Metrics.p_rows);
  rejects "an op whose name is not a string" "ops[0].name" (one_op "7");
  (* a campaign artifact and a profile never diff *)
  let campaign =
    parse
      (Metrics.to_json_string
         (Metrics.artifact (Metrics.create ()) ~seed:"profile-test"))
  in
  match Metrics.diff campaign p with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "artifacts of different schemas diffed"

let test_renderings () =
  let a = Profile.run ~ops_filter:cheap ~seed:"profile-test" () in
  let table = Profile.render_table a in
  Alcotest.(check bool) "table names the ops" true
    (let contains ~needle hay =
       let nl = String.length needle in
       let found = ref false in
       for i = 0 to String.length hay - nl do
         if String.sub hay i nl = needle then found := true
       done;
       !found
     in
     contains ~needle:"keygen kyber512" table
     && contains ~needle:"Virtual vs real attribution" table);
  let folded = Profile.folded a in
  List.iter
    (fun line ->
      if line <> "" then
        Alcotest.(check bool)
          (line ^ " is a folded stack")
          true
          (String.contains line ' '))
    (String.split_on_char '\n' folded);
  match Profile.run ~ops_filter:"no-such-op" ~seed:"profile-test" () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty filter should be rejected"

let suites =
  [ ( "profile",
      [ Alcotest.test_case "registry covers every KA, SA and kernel" `Quick
          test_registry_coverage;
        Alcotest.test_case "artifact shape deterministic across jobs" `Quick
          test_shape_determinism;
        Alcotest.test_case "measured values are sane" `Quick
          test_measured_sanity;
        Alcotest.test_case "JSON roundtrip" `Quick test_json_roundtrip;
        Alcotest.test_case "diff catches drift and shape changes" `Quick
          test_diff_catches_changes;
        Alcotest.test_case "renderings" `Quick test_renderings ] )
  ]
