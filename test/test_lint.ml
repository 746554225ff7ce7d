(* pqtls-lint: one bad and one good fixture per rule (each rule fires
   exactly on its bad fixture and stays quiet on the good one), the
   lint.allow attribute, and a repo-wide clean-run assertion — the same
   invariant CI enforces with the real binary. *)

let parse path text = Lint.Source.parse_string ~path Lint.Source.Ml text

let run ?rules srcs = Lint.Engine.run ?rules srcs

let rules_fired diags =
  List.sort_uniq String.compare
    (List.map (fun d -> d.Lint.Diag.rule) diags)

(* every fixture lives at lib/fixture/..., which is inside lib/ (S1
   scope) but outside lib/{crypto,pqc,tls} (C1 scope) and always has a
   phantom .mli companion so M1 stays quiet unless it is the rule under
   test *)
let with_mli path srcs =
  Lint.Source.
    { path = path ^ "i"; kind = Mli; ast = Signature [] }
  :: srcs

let run_with_mli path text = run (with_mli path [ parse path text ])

let test_d1 () =
  let bad = "let stamp () = Unix.gettimeofday ()\nlet t = Sys.time ()" in
  let diags = run_with_mli "lib/fixture/d1_bad.ml" bad in
  Alcotest.(check (list string)) "both wall-clock reads fire" [ "D1"; "D1" ]
    (List.map (fun d -> d.Lint.Diag.rule) diags);
  Alcotest.(check string) "symbol is the enclosing binding" "stamp"
    (List.hd diags).Lint.Diag.symbol;
  let opened =
    "let stamp () = Unix.(gettimeofday ())\n\
     let t = let open Unix in gettimeofday ()"
  in
  Alcotest.(check (list string)) "wall-clock reads under a local open fire"
    [ "D1"; "D1" ]
    (List.map
       (fun d -> d.Lint.Diag.rule)
       (run_with_mli "lib/fixture/d1_open.ml" opened));
  let good = "let stamp engine = Engine.now engine" in
  Alcotest.(check (list string)) "virtual time is clean" []
    (rules_fired (run_with_mli "lib/fixture/d1_good.ml" good))

(* the second half of D1: the quarantined Core.Clock is itself banned in
   the deterministic simulation layers, while the harness layers (core,
   bin, bench, test) may observe it freely *)
let test_d1_clock_scope () =
  let read = "let stamp () = Clock.now_s ()" in
  Alcotest.(check (list string)) "clock read in lib/netsim fires" [ "D1" ]
    (rules_fired (run_with_mli "lib/netsim/d1_clock.ml" read));
  let qualified = "let stamp t0 = Core.Clock.elapsed_s t0" in
  Alcotest.(check (list string)) "qualified clock read in lib/trace fires"
    [ "D1" ]
    (rules_fired (run_with_mli "lib/trace/d1_clock.ml" qualified));
  Alcotest.(check (list string)) "lib/core may read the clock" []
    (rules_fired (run_with_mli "lib/core/d1_clock.ml" read));
  Alcotest.(check (list string)) "tests may read the clock" []
    (rules_fired (run [ parse "test/d1_clock.ml" read ]))

let test_d2 () =
  let bad = "let pairs h = Hashtbl.fold (fun k v a -> (k, v) :: a) h []" in
  Alcotest.(check (list string)) "unsorted fold escape fires" [ "D2" ]
    (rules_fired (run_with_mli "lib/fixture/d2_bad.ml" bad));
  let bad_iter = "let dump h = Hashtbl.iter (fun k _ -> print_string k) h" in
  Alcotest.(check (list string)) "hash-order iter fires" [ "D2" ]
    (rules_fired (run_with_mli "lib/fixture/d2_iter.ml" bad_iter));
  let good =
    "let pairs h =\n\
    \  Hashtbl.fold (fun k v a -> (k, v) :: a) h [] |> List.sort compare\n\
     let pairs2 h =\n\
    \  List.sort compare (Hashtbl.fold (fun k v a -> (k, v) :: a) h [])"
  in
  Alcotest.(check (list string)) "sorted-at-producer folds are clean" []
    (rules_fired (run_with_mli "lib/fixture/d2_good.ml" good))

let test_c1 () =
  let bad =
    "let check tag expected = String.equal tag expected\n\
     let is_magic s = s = \"magic\""
  in
  let path = "lib/crypto/c1_bad.ml" in
  Alcotest.(check (list string)) "both comparisons fire" [ "C1"; "C1" ]
    (List.map
       (fun d -> d.Lint.Diag.rule)
       (run (with_mli path [ parse path bad ])))
  ;
  let good = "let check tag expected = Bytesx.equal_ct tag expected" in
  let path = "lib/crypto/c1_good.ml" in
  Alcotest.(check (list string)) "equal_ct is clean" []
    (rules_fired (run (with_mli path [ parse path good ])));
  (* same bad text outside lib/{crypto,pqc,tls} is out of scope *)
  Alcotest.(check (list string)) "C1 scope stops at the crypto layers" []
    (rules_fired (run_with_mli "lib/fixture/c1_elsewhere.ml" bad))

let test_s1 () =
  let bad = "let cache = Hashtbl.create 8" in
  Alcotest.(check (list string)) "module-level mutable state fires" [ "S1" ]
    (rules_fired (run_with_mli "lib/fixture/s1_bad.ml" bad));
  let good =
    "let make () = Hashtbl.create 8\nlet lazy_tbl = lazy (Hashtbl.create 8)"
  in
  Alcotest.(check (list string)) "per-call creation is clean" []
    (rules_fired (run_with_mli "lib/fixture/s1_good.ml" good));
  (* the same text outside lib/ is out of scope *)
  let diags = run [ parse "bench/s1_elsewhere.ml" bad ] in
  Alcotest.(check (list string)) "S1 scope is lib/ only" []
    (rules_fired diags)

let test_m1 () =
  let ml = "let answer = 42" in
  Alcotest.(check (list string)) "missing .mli fires" [ "M1" ]
    (rules_fired (run [ parse "lib/fixture/m1_bad.ml" ml ]));
  Alcotest.(check (list string)) ".mli present is clean" []
    (rules_fired (run_with_mli "lib/fixture/m1_good.ml" ml));
  Alcotest.(check (list string)) "M1 scope is lib/ only" []
    (rules_fired (run [ parse "bin/m1_elsewhere.ml" ml ]))

let test_attribute_suppression () =
  let text =
    "let stamp () =\n\
    \  (Unix.gettimeofday () [@lint.allow \"D1\" \"test fixture\"])"
  in
  Alcotest.(check (list string)) "annotated site is suppressed" []
    (rules_fired (run_with_mli "lib/fixture/attr.ml" text));
  let binding =
    "let cache = Hashtbl.create 8 [@@lint.allow \"S1\" \"guarded\"]"
  in
  Alcotest.(check (list string)) "binding attribute is suppressed" []
    (rules_fired (run_with_mli "lib/fixture/attr_binding.ml" binding));
  let whole_file =
    "[@@@lint.allow \"D1\" \"wall-clock test file\"]\n\
     let a () = Unix.gettimeofday ()\n\
     let b () = Sys.time ()"
  in
  Alcotest.(check (list string)) "floating attribute covers the file" []
    (rules_fired (run_with_mli "lib/fixture/attr_file.ml" whole_file));
  (* a reason is mandatory: its absence is itself a violation *)
  let no_reason =
    "let stamp () = (Unix.gettimeofday () [@lint.allow \"D1\"])"
  in
  Alcotest.(check (list string)) "reason-less suppression = LINT + D1"
    [ "D1"; "LINT" ]
    (rules_fired (run_with_mli "lib/fixture/attr_bad.ml" no_reason));
  (* a suppression for rule X does not silence rule Y *)
  let wrong_rule =
    "let stamp () = (Unix.gettimeofday () [@lint.allow \"C1\" \"nope\"])"
  in
  Alcotest.(check (list string)) "wrong-rule suppression does not apply"
    [ "D1" ]
    (rules_fired (run_with_mli "lib/fixture/attr_wrong.ml" wrong_rule))

let test_rule_selection () =
  let text = "let stamp () = Unix.gettimeofday ()\nlet c = Hashtbl.create 8" in
  let d1 = Option.get (Lint.Engine.find_rule "D1") in
  Alcotest.(check (list string)) "only the selected rule runs" [ "D1" ]
    (rules_fired
       (run ~rules:[ d1 ]
          (with_mli "lib/fixture/sel.ml" [ parse "lib/fixture/sel.ml" text ])));
  Alcotest.(check bool) "unknown rules are not found" true
    (Lint.Engine.find_rule "Z9" = None)

let test_report_json () =
  let diags = run [ parse "lib/fixture/j_bad.ml" "let t = Sys.time ()" ] in
  let json =
    Lint.Report.render Lint.Report.Json ~rules:Lint.Engine.rules ~files:1
      ~errors:[] diags
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("json contains " ^ needle) true
        (let n = String.length needle and m = String.length json in
         let rec go i =
           i + n <= m && (String.sub json i n = needle || go (i + 1))
         in
         go 0))
    [ "\"schema\": \"pqtls-lint/1\""; "\"rule\": \"D1\""; "\"line\": 1";
      "\"rule\": \"M1\"" ]

let rule name = Option.get (Lint.Engine.find_rule name)

let contains haystack needle =
  let n = String.length needle and m = String.length haystack in
  let rec go i =
    i + n <= m && (String.sub haystack i n = needle || go (i + 1))
  in
  go 0

let test_c2 () =
  let c2 = [ rule "C2" ] in
  let fired path text = rules_fired (run ~rules:c2 [ parse path text ]) in
  Alcotest.(check (list string)) "seeded param reaching String.equal fires"
    [ "C2" ]
    (fired "lib/tls/c2a.ml" "let check ~psk other = String.equal psk other");
  Alcotest.(check (list string)) "taint survives one call level" [ "C2" ]
    (fired "lib/tls/c2b.ml"
       "let helper s = s\n\
        let f ~master_secret =\n\
       \  match helper master_secret with \"\" -> 0 | _ -> 1");
  (* an HKDF output is secret whatever its binding is called *)
  let hkdf =
    "let f h x =\n\
    \  let k = Hkdf.extract h ~salt:\"\" ~ikm:x in\n\
    \  if k = \"\" then 1 else 0"
  in
  Alcotest.(check int) "HKDF output branches fire (compare + if)" 2
    (List.length (run ~rules:c2 [ parse "lib/tls/c2c.ml" hkdf ]));
  Alcotest.(check (list string)) "equal_ct clears taint" []
    (fired "lib/tls/c2d.ml"
       "let check ~psk other = Crypto.Bytesx.equal_ct psk other");
  Alcotest.(check (list string)) "declassify annotation clears taint" []
    (fired "lib/tls/c2e.ml"
       "let helper s = s\n\
        let f ~ticket_key =\n\
       \  match (helper ticket_key [@lint.declassify \"audited\"]) with\n\
       \  | \"\" -> 0\n\
       \  | _ -> 1");
  Alcotest.(check (list string)) "reason-less declassify = LINT + C2"
    [ "C2"; "LINT" ]
    (fired "lib/tls/c2f.ml"
       "let f ~ticket_key =\n\
       \  match (ticket_key [@lint.declassify]) with \"\" -> 0 | _ -> 1");
  Alcotest.(check (list string)) "String.equal under a local open fires"
    [ "C2" ]
    (fired "lib/tls/c2h.ml" "let check ~psk other = String.(equal psk other)");
  Alcotest.(check (list string)) "Printf under a local open fires" [ "C2" ]
    (fired "lib/tls/c2i.ml"
       "let show client_secret = Printf.(printf \"%s\" client_secret)");
  Alcotest.(check (list string)) "C2 scope stops at the crypto layers" []
    (fired "lib/netsim/c2g.ml"
       "let check ~psk other = String.equal psk other")

let test_taint_summaries () =
  let srcs =
    [ parse "lib/tls/t_sum.ml"
        "let derive h x = Hkdf.extract h ~salt:\"\" ~ikm:x\n\
         let pass x = x\n\
         let const () = 42" ]
  in
  let t = Lint.Taint.analyse (Lint.Symtab.build srcs) in
  let s q = Option.get (Lint.Taint.summary t q) in
  Alcotest.(check bool) "HKDF wrapper returns secret" true
    (s "Tls.T_sum.derive").Lint.Taint.s_ret;
  Alcotest.(check bool) "identity is not a source" false
    (s "Tls.T_sum.pass").Lint.Taint.s_ret;
  Alcotest.(check bool) "identity propagates argument taint" true
    (s "Tls.T_sum.pass").Lint.Taint.s_arg_to_ret;
  Alcotest.(check bool) "constants stay pure" false
    (s "Tls.T_sum.const").Lint.Taint.s_ret;
  Alcotest.(check bool) "secret_name seeds by suffix" true
    (Lint.Taint.secret_name "client_hs_secret");
  Alcotest.(check bool) "secret_name ignores public names" false
    (Lint.Taint.secret_name "transcript")

let test_callgraph () =
  let srcs =
    [ parse "lib/core/cg_a.ml"
        "let f x = x + 1\nlet g y = f y\nlet r xs = Pool.map f xs";
      parse "lib/tls/cg_b.ml" "let h z = Core.Cg_a.g z" ]
  in
  let syms = Lint.Symtab.build srcs in
  let cg = Lint.Callgraph.build syms in
  Alcotest.(check (list string)) "bare-name edge resolves" [ "Core.Cg_a.f" ]
    (Lint.Callgraph.callees cg "Core.Cg_a.g");
  Alcotest.(check (list string)) "cross-library edge resolves"
    [ "Core.Cg_a.g" ]
    (Lint.Callgraph.callees cg "Tls.Cg_b.h");
  let reach = Lint.Callgraph.reachable cg [ "Tls.Cg_b.h" ] in
  Alcotest.(check bool) "reachability is transitive" true
    (Hashtbl.mem reach "Core.Cg_a.f");
  Alcotest.(check bool) "unrelated defs are not reachable" false
    (Hashtbl.mem reach "Core.Cg_a.r");
  Alcotest.(check (list string)) "Pool.map sites are roots" [ "Core.Cg_a.r" ]
    (Lint.Callgraph.pool_roots syms);
  (* inside a nested module, an unqualified name is tried in that module
     first, and a [let*] is an edge to the ( let* ) in scope *)
  let nested =
    Lint.Symtab.build
      [ parse "lib/core/cg_n.ml"
          "let ( let* ) = Result.bind\n\
           module Inner = struct\n\
          \  let digit c = Ok c\n\
          \  let pair a b =\n\
          \    let* x = digit a in\n\
          \    let* y = digit b in\n\
          \    Ok (x, y)\n\
           end" ]
  in
  Alcotest.(check (list string)) "nested sibling and binding-operator edges"
    [ "Core.Cg_n.Inner.digit"; "Core.Cg_n.let*" ]
    (Lint.Callgraph.callees (Lint.Callgraph.build nested)
       "Core.Cg_n.Inner.pair");
  (* a name under [let open M in], [M.(e)] or [M.[...]] resolves in M
     first, M named as a wrapped path or as a module of the same library *)
  let opened =
    Lint.Symtab.build
      [ parse "lib/core/cg_j.ml" "let to_string v = v
let null = 0";
        parse "lib/core/cg_k.ml" "let row v = Cg_j.(to_string v)";
        parse "bin/cg_main.ml"
          "let to_string v = v
           let emit v = let open Core.Cg_j in to_string v
           let pair () = Core.Cg_j.[ null ]
           let aliased v = let module J = Core.Cg_j in J.to_string v" ]
  in
  let ocg = Lint.Callgraph.build opened in
  Alcotest.(check (list (pair string (list string))))
    "local-open and local-alias edges"
    [ ("Cg_main.emit", [ "Core.Cg_j.to_string" ]);
      ("Cg_main.pair", [ "Core.Cg_j.null" ]);
      ("Cg_main.aliased", [ "Core.Cg_j.to_string" ]);
      ("Core.Cg_k.row", [ "Core.Cg_j.to_string" ]) ]
    (List.map
       (fun v -> (v, Lint.Callgraph.callees ocg v))
       [ "Cg_main.emit"; "Cg_main.pair"; "Cg_main.aliased"; "Core.Cg_k.row" ]);
  Alcotest.(check bool) "dot rendering is graphviz" true
    (contains (Lint.Callgraph.to_dot cg) "digraph")

let test_u1 () =
  let u1 = [ rule "U1" ] in
  let fired path text = rules_fired (run ~rules:u1 [ parse path text ]) in
  Alcotest.(check (list string)) "unsafe outside a kernel fires" [ "U1" ]
    (fired "lib/crypto/u1a.ml" "let get b i = Bytes.unsafe_get b i");
  Alcotest.(check (list string)) "kernel-annotated module is clean" []
    (fired "lib/crypto/u1b.ml"
       "[@@@lint.kernel \"fixture bounds argument\"]\n\
        let get b i = Bytes.unsafe_get b i");
  Alcotest.(check (list string)) "stale kernel annotation fires" [ "U1" ]
    (fired "lib/crypto/u1c.ml"
       "[@@@lint.kernel \"nothing unsafe here\"]\nlet id x = x");
  Alcotest.(check (list string)) "reason-less kernel annotation fires"
    [ "U1" ]
    (fired "lib/crypto/u1d.ml"
       "[@@@lint.kernel]\nlet get b i = Bytes.unsafe_get b i");
  Alcotest.(check (list string)) "U1 scope is lib/ only" []
    (fired "bench/u1e.ml" "let get b i = Bytes.unsafe_get b i");
  Alcotest.(check (list string)) "unchecked external outside a kernel fires"
    [ "U1" ]
    (fired "lib/crypto/u1f.ml"
       "external get64u : Bytes.t -> int -> int64 = \"%caml_bytes_get64u\"");
  Alcotest.(check (list string))
    "unchecked external keeps a kernel annotation live" []
    (fired "lib/crypto/u1g.ml"
       "[@@@lint.kernel \"fixture bounds argument\"]\n\
        module M = struct\n\
        external get : 'a array -> int -> 'a = \"%array_unsafe_get\"\n\
        end");
  Alcotest.(check (list string)) "checked external is not unsafe" []
    (fired "lib/crypto/u1h.ml"
       "external get64 : Bytes.t -> int -> int64 = \"%caml_bytes_get64\"")

let test_s2 () =
  let s2 = [ rule "S2" ] in
  let fired path text = rules_fired (run ~rules:s2 [ parse path text ]) in
  let unmutexed =
    "let cache = Hashtbl.create 16\n\
     let record x = Hashtbl.replace cache x x\n\
     let run xs = Pool.map record xs"
  in
  Alcotest.(check (list string)) "pool-reachable unguarded write fires"
    [ "S2" ]
    (fired "lib/core/s2a.ml" unmutexed);
  let opened =
    "let cache = Hashtbl.create 16\n\
     let paren x = Hashtbl.(replace cache x x)\n\
     let let_open x = let open Hashtbl in replace cache x x\n\
     let run xs = Pool.map (fun x -> paren x; let_open x) xs"
  in
  Alcotest.(check int) "writes under a local open fire" 2
    (List.length (run ~rules:s2 [ parse "lib/core/s2d.ml" opened ]));
  let mutexed =
    "let cache = Hashtbl.create 16\n\
     let lock = Mutex.create ()\n\
     let record x = Mutex.protect lock (fun () -> Hashtbl.replace cache x x)\n\
     let run xs = Pool.map record xs"
  in
  Alcotest.(check (list string)) "Mutex.protect-guarded write is clean" []
    (fired "lib/core/s2b.ml" mutexed);
  let no_pool =
    "let cache = Hashtbl.create 16\n\
     let record x = Hashtbl.replace cache x x"
  in
  Alcotest.(check (list string)) "writes unreachable from pools are clean"
    []
    (fired "lib/core/s2c.ml" no_pool)

let test_m2 () =
  let m2 = [ rule "M2" ] in
  let lib =
    parse "lib/fixture/m2.ml"
      "let used x = x + 1\n\
       let dead_helper x = x * 2\n\
       let dead x = dead_helper x\n\
       let test_helper x = x - 1\n\
       let tested x = test_helper x [@@lint.allow \"M2\" \"test: kept\"]"
  in
  let bin = parse "bin/main.ml" "let main () = Fixture.M2.used 1" in
  let test = parse "test/t.ml" "let t () = Fixture.M2.dead 0" in
  let flagged srcs =
    List.map (fun d -> d.Lint.Diag.symbol) (run ~rules:m2 srcs)
  in
  Alcotest.(check (list string)) "unreached definitions fire, one each"
    [ "dead_helper"; "dead" ]
    (flagged [ lib; bin; test ]);
  Alcotest.(check (list string)) "a tree without a root file is skipped" []
    (flagged [ lib; test ]);
  (* an example is one [let ()], calling into a module it opens *)
  let example =
    parse "examples/demo.ml" "open Fixture\nlet () = print_int (M2.dead 1)"
  in
  Alcotest.(check (list string)) "what an example's let () uses is live" []
    (flagged [ lib; bin; example ]);
  Alcotest.(check (list string)) "roots pair with lib files by tree" []
    (flagged [ lib; parse "other/bin/main.ml" "let main () = ()" ])

let test_sarif () =
  let diags = run [ parse "lib/fixture/sa_bad.ml" "let t = Sys.time ()" ] in
  let sarif =
    Lint.Report.render Lint.Report.Sarif ~rules:Lint.Engine.rules ~files:1
      ~errors:[] diags
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("sarif contains " ^ needle) true
        (contains sarif needle))
    [ "\"version\": \"2.1.0\"";
      "sarif-2.1.0";
      "\"ruleId\": \"D1\"";
      "\"level\": \"error\"";
      "\"startLine\": 1";
      "\"id\": \"C2\"" ];
  Alcotest.(check bool) "sarif format is registered" true
    (Lint.Report.format_of_string "sarif" = Some Lint.Report.Sarif)

let test_rule_metadata () =
  List.iter
    (fun (r : Lint.Rule.t) ->
      Alcotest.(check bool) (r.Lint.Rule.name ^ " has a doc string") true
        (String.length r.Lint.Rule.doc > 40))
    Lint.Engine.rules;
  Alcotest.(check (list string)) "catalog order"
    [ "D1"; "D2"; "C1"; "C2"; "S1"; "S2"; "U1"; "M1"; "M2" ]
    (List.map (fun (r : Lint.Rule.t) -> r.Lint.Rule.name) Lint.Engine.rules);
  Alcotest.(check string) "severity vocabulary" "error"
    (Lint.Rule.severity_string Lint.Rule.Error)

(* The invariant CI enforces with the installed binary: the tree itself
   is clean. Locate the repo root by
   walking up out of _build; skip (rather than fail) when the test runs
   detached from a checkout. *)
let repo_root () =
  match Sys.getenv_opt "PQTLS_LINT_ROOT" with
  | Some r -> Some r
  | None ->
    let rec up dir =
      let in_build path =
        List.mem "_build" (String.split_on_char '/' path)
      in
      if Sys.file_exists (Filename.concat dir "dune-project")
         && not (in_build dir)
      then Some dir
      else
        let parent = Filename.dirname dir in
        if parent = dir then None else up parent
    in
    up (Sys.getcwd ())

let test_repo_clean () =
  match repo_root () with
  | None -> print_endline "no checkout found; skipping repo-wide lint"
  | Some root ->
    let paths =
      List.map (Filename.concat root)
        [ "lib"; "bin"; "bench"; "examples"; "test" ]
    in
    let sources, errors = Lint.Source.load_paths paths in
    Alcotest.(check (list (pair string string))) "everything parses" []
      errors;
    Alcotest.(check bool) "the tree is there" true
      (List.length sources > 100);
    let diags = run sources in
    Alcotest.(check (list string)) "repo-wide clean run" []
      (List.map Lint.Diag.to_string diags)

(* The on-disk fixture corpus CI also checks with the real binary: the
   exact per-rule finding counts prove each dataflow rule is alive (a
   silently-dead rule would report 0 everywhere). *)
let test_fixture_corpus () =
  match repo_root () with
  | None -> print_endline "no checkout found; skipping fixture corpus"
  | Some root ->
    let dir = Filename.concat root "test/lint_fixtures" in
    let sources, errors = Lint.Source.load_paths [ dir ] in
    Alcotest.(check (list (pair string string))) "fixtures parse" [] errors;
    Alcotest.(check int) "fixture corpus size" 11 (List.length sources);
    List.iter
      (fun (name, expected) ->
        let diags = run ~rules:[ rule name ] sources in
        Alcotest.(check int)
          (Printf.sprintf "%s fires %d times on the corpus" name expected)
          expected (List.length diags);
        List.iter
          (fun (d : Lint.Diag.t) ->
            Alcotest.(check string) "only the selected rule fires" name
              d.Lint.Diag.rule)
          diags)
      [ ("C2", 5); ("U1", 3); ("S2", 1); ("M2", 2) ];
    (* recursive scans skip the corpus, so the repo-wide clean run and
       the blocking CI lint job never see these deliberate findings *)
    let scanned = Lint.Source.scan [ Filename.concat root "test" ] in
    Alcotest.(check bool) "scan skips lint_fixtures" false
      (List.exists (fun p -> contains p "lint_fixtures") scanned)

let suites =
  [ ( "lint",
      [ Alcotest.test_case "D1 wall clock" `Quick test_d1;
        Alcotest.test_case "D1 clock quarantine scope" `Quick
          test_d1_clock_scope;
        Alcotest.test_case "D2 hash order" `Quick test_d2;
        Alcotest.test_case "C1 constant time" `Quick test_c1;
        Alcotest.test_case "C2 secret flow" `Quick test_c2;
        Alcotest.test_case "taint summaries" `Quick test_taint_summaries;
        Alcotest.test_case "call graph" `Quick test_callgraph;
        Alcotest.test_case "S1 global state" `Quick test_s1;
        Alcotest.test_case "S2 domain race" `Quick test_s2;
        Alcotest.test_case "U1 unsafe confinement" `Quick test_u1;
        Alcotest.test_case "M1 interfaces" `Quick test_m1;
        Alcotest.test_case "M2 unreachable definitions" `Quick test_m2;
        Alcotest.test_case "attribute suppression" `Quick
          test_attribute_suppression;
        Alcotest.test_case "rule selection" `Quick test_rule_selection;
        Alcotest.test_case "json report" `Quick test_report_json;
        Alcotest.test_case "sarif report" `Quick test_sarif;
        Alcotest.test_case "rule metadata" `Quick test_rule_metadata;
        Alcotest.test_case "repo-wide clean run" `Quick test_repo_clean;
        Alcotest.test_case "fixture corpus counts" `Quick
          test_fixture_corpus ] )
  ]
