(* pqtls-lint — the determinism & constant-time analysis gate.

     pqtls-lint check                 # lib bin bench examples test, text report
     pqtls-lint check lib/crypto --rule C1
     pqtls-lint check --format json   # CI artifact
     pqtls-lint check --format sarif  # GitHub code scanning
     pqtls-lint rules [--json]        # the rule catalog
     pqtls-lint graph [--dot]         # the computed call graph

   Exit codes: 0 clean, 1 violations found, 2 parse/usage errors — so CI
   can distinguish "the code is wrong" from "the linter could not run". *)

open Cmdliner

let default_paths = [ "lib"; "bin"; "bench"; "examples"; "test" ]

let paths_arg =
  let doc =
    "Files or directories to check (default: lib bin bench examples test)."
  in
  Arg.(value & pos_all string default_paths & info [] ~docv:"PATH" ~doc)

let format_arg =
  let doc = "Report format: $(b,text), $(b,json) or $(b,sarif)." in
  Arg.(value & opt string "text" & info [ "format" ] ~docv:"FMT" ~doc)

let rule_arg =
  let doc =
    "Run only rule $(docv) (repeatable). Default: the full catalog."
  in
  Arg.(value & opt_all string [] & info [ "r"; "rule" ] ~docv:"RULE" ~doc)

let allowlist_arg =
  let doc =
    "Checked-in allowlist file of audited exceptions (RULE PATH SYMBOL \
     REASON per line)."
  in
  Arg.(
    value & opt string "lint.allow" & info [ "allowlist" ] ~docv:"FILE" ~doc)

let check_cmd =
  let run paths format rule_names allowlist =
    match Lint.Report.format_of_string format with
    | None ->
      Printf.eprintf
        "pqtls-lint: unknown format %S (want text, json or sarif)\n" format;
      exit 2
    | Some fmt -> (
      match
        List.filter_map
          (fun name ->
            match Lint.Engine.find_rule name with
            | Some r -> Some (Ok r)
            | None -> Some (Error name))
          rule_names
      with
      | selected
        when List.exists (function Error _ -> true | Ok _ -> false) selected
        ->
        List.iter
          (function
            | Error name ->
              Printf.eprintf "pqtls-lint: unknown rule %S\n" name
            | Ok _ -> ())
          selected;
        exit 2
      | selected ->
        let rules =
          match
            List.filter_map
              (function Ok r -> Some r | Error _ -> None)
              selected
          with
          | [] -> Lint.Engine.rules
          | rs -> rs
        in
        let sources, parse_errors = Lint.Source.load_paths paths in
        let entries, allow_diags = Lint.Allow.load_file allowlist in
        let diags = allow_diags @ Lint.Engine.run ~entries ~rules sources in
        print_string
          (Lint.Report.render fmt ~rules
             ~files:(List.length sources)
             ~errors:parse_errors diags);
        if parse_errors <> [] then exit 2
        else if diags <> [] then exit 1
        else exit 0)
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Parse every .ml/.mli under the given paths and run the \
          determinism / constant-time / state-discipline rules.")
    Term.(const run $ paths_arg $ format_arg $ rule_arg $ allowlist_arg)

let rules_cmd =
  let json_arg =
    let doc = "Emit the catalog as JSON (name, severity, synopsis, doc)." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let run json =
    if not json then
      List.iter
        (fun (r : Lint.Rule.t) ->
          Printf.printf "%-4s %s\n" r.Lint.Rule.name r.Lint.Rule.synopsis)
        Lint.Engine.rules
    else begin
      let buf = Buffer.create 1024 in
      let str s =
        Buffer.add_char buf '"';
        String.iter
          (fun c ->
            match c with
            | '"' -> Buffer.add_string buf "\\\""
            | '\\' -> Buffer.add_string buf "\\\\"
            | '\n' -> Buffer.add_string buf "\\n"
            | c -> Buffer.add_char buf c)
          s;
        Buffer.add_char buf '"'
      in
      Buffer.add_string buf "{\n  \"rules\": [";
      List.iteri
        (fun i (r : Lint.Rule.t) ->
          Buffer.add_string buf (if i = 0 then "\n" else ",\n");
          Buffer.add_string buf "    { \"name\": ";
          str r.Lint.Rule.name;
          Buffer.add_string buf ", \"severity\": ";
          str (Lint.Rule.severity_string r.Lint.Rule.severity);
          Buffer.add_string buf ",\n      \"synopsis\": ";
          str r.Lint.Rule.synopsis;
          Buffer.add_string buf ",\n      \"doc\": ";
          str r.Lint.Rule.doc;
          Buffer.add_string buf " }")
        Lint.Engine.rules;
      Buffer.add_string buf "\n  ]\n}\n";
      print_string (Buffer.contents buf)
    end
  in
  Cmd.v
    (Cmd.info "rules" ~doc:"List the rule catalog.")
    Term.(const run $ json_arg)

let graph_cmd =
  let dot_arg =
    let doc = "Emit Graphviz instead of caller -> callee lines." in
    Arg.(value & flag & info [ "dot" ] ~doc)
  in
  let run paths dot =
    let sources, parse_errors = Lint.Source.load_paths paths in
    List.iter
      (fun (path, msg) -> Printf.eprintf "%s: parse error\n%s\n" path msg)
      parse_errors;
    let cg = Lint.Callgraph.build (Lint.Symtab.build sources) in
    print_string
      (if dot then Lint.Callgraph.to_dot cg else Lint.Callgraph.to_text cg);
    if parse_errors <> [] then exit 2
  in
  Cmd.v
    (Cmd.info "graph"
       ~doc:
         "Dump the call graph the dataflow rules (C2, S2, M2) compute, \
          for debugging the analysis.")
    Term.(const run $ paths_arg $ dot_arg)

let () =
  let info =
    Cmd.info "pqtls-lint"
      ~doc:
        "AST-level determinism and constant-time analysis gate for the \
         pqtls tree"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          ~default:Term.(ret (const (`Help (`Pager, None))))
          [ check_cmd; rules_cmd; graph_cmd ]))
