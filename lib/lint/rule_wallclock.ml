let banned =
  [ "Unix.gettimeofday";
    "Unix.time";
    "Sys.time";
    "Random.self_init";
    "Random.State.make_self_init" ]

(* The quarantined clock itself ({!Core.Clock}) is legal in the harness
   layers — core, bin, bench, test — where it feeds telemetry and the
   profiling artifact, but banned inside the simulation stack, which
   must stay a pure function of spec and seed. *)
let clock_reads =
  [ "Clock.now_s"; "Clock.elapsed_s"; "Core.Clock.now_s";
    "Core.Clock.elapsed_s" ]

let sim_dirs =
  [ "lib/crypto"; "lib/pqc"; "lib/tls"; "lib/netsim"; "lib/trace";
    "lib/lint" ]

let in_sim path = List.exists (fun dir -> Walk.in_dir ~dir path) sim_dirs

let check { Rule.sources; syms; _ } =
  List.concat_map
    (fun (src : Source.t) ->
      match src.Source.ast with
      | Source.Signature _ -> []
      | Source.Structure str ->
        let out = ref [] in
        let diag ~symbol e msg =
          out :=
            Diag.make ~rule:"D1" ~file:src.Source.path ~symbol
              e.Parsetree.pexp_loc msg
            :: !out
        in
        Walk.iter_expressions str (fun ~symbol e ->
            let hit names = Symtab.head_in syms ~file:src.Source.path names e in
            match (hit banned, hit clock_reads) with
            | Some path, _ ->
              diag ~symbol e
                (path
               ^ " reads the wall clock; campaign results must depend \
                  only on virtual time and the seed")
            | None, Some path when in_sim src.Source.path ->
              diag ~symbol e
                (path
               ^ " reads host time inside the simulation stack; only the \
                  harness layers (lib/core, bin, bench, test) may observe \
                  the quarantined clock")
            | _ -> ());
        !out)
    sources

let rule =
  { Rule.name = "D1";
    severity = Rule.Error;
    doc =
      "Simulated time is the experiment's only clock. Raw wall-clock \
       primitives (Unix.gettimeofday, Sys.time, Random.self_init, \
       Unix.time, Mtime) may appear only inside the annotated \
       Core.Clock module, and Core.Clock itself is banned from the \
       simulation layers so no measurement can silently depend on the \
       host machine.";
    synopsis =
      "wall-clock reads are quarantined: the raw primitives \
       (Unix.gettimeofday, Sys.time, Random.self_init, ...) live only in \
       the annotated Core.Clock module, and Clock itself is banned in the \
       simulation layers";
    check }
