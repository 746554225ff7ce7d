(* Host-time benchmark of the catalog campaigns; see README.md.

     perf.exe --workload W [--seed S] [--seconds N] [--trace 0|1]
     perf.exe list [--json]
     perf.exe setup-probe W DIR      (internal: one set-up, timed by the parent)

   The last line on stdout is the JSON result; everything else goes to
   stderr. The exit code is 1 when a correctness check fails. *)

let workload name =
  match Manifest.find_workload name with
  | Some w -> w
  | None ->
    Printf.eprintf "unknown workload %S; known: %s\n" name
      (String.concat ", "
         (List.map (fun w -> w.Manifest.name) Manifest.workloads));
    exit 2

let main () =
  let name = ref "" and seed = ref Common.golden_seed in
  let seconds = ref Manifest.run_seconds and trace = ref 0 in
  Arg.parse
    [ ("--workload", Arg.Set_string name, "W  workload to run (see list)");
      ("--seed", Arg.Set_string seed, "S  campaign seed (default pqtls)");
      ("--seconds", Arg.Set_int seconds, "N  measuring time (untraced run)");
      ("--trace", Arg.Set_int trace, "0|1  1 runs the traced pass") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perf.exe --workload W [--seed S] [--seconds N] [--trace 0|1]";
  let w = workload !name in
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "--seconds must be at least 1 and --trace 0 or 1";
    exit 2
  end;
  Common.mkdir_p Common.work_dir;
  let attempted, failed, values, specs =
    if !trace = 1 then
      let a, f, v = Layers.measure ~seed:!seed w in
      (a, f, v, Manifest.per_layer)
    else
      let a, f, v = E2e.measure ~seed:!seed ~seconds:!seconds w in
      (a, f, v, Manifest.end_to_end)
  in
  Common.print_result ~attempted ~failed specs values;
  if !Common.failures <> [] then exit 1

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "list" ] -> print_string (Manifest.list_text ())
  | [ "list"; "--json" ] -> print_string (Manifest.benchmark_json ())
  | [ "setup-probe"; name; dir ] -> E2e.setup_probe (workload name) dir
  | _ -> main ()
