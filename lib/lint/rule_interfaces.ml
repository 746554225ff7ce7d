let module_name path =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename path))

let check { Rule.sources; _ } =
  List.filter_map
    (fun (src : Source.t) ->
      match src.Source.kind with
      | Source.Mli -> None
      | Source.Ml ->
        if not (Walk.in_dir ~dir:"lib" src.Source.path) then None
        else begin
          let mli = src.Source.path ^ "i" in
          let present =
            List.exists (fun (s : Source.t) -> s.Source.path = mli) sources
            || Sys.file_exists mli
          in
          if present then None
          else
            Some
              { Diag.rule = "M1";
                file = src.Source.path;
                line = 1;
                col = 0;
                symbol = module_name src.Source.path;
                message =
                  Printf.sprintf
                    "module %s has no interface; add %s so the public \
                     surface is reviewed"
                    (module_name src.Source.path)
                    (Filename.basename mli) }
        end)
    sources

let rule =
  { Rule.name = "M1";
    severity = Rule.Warning;
    doc =
      "An .mli seals a module's namespace: without one, every helper \
       is public API and the dataflow rules lose the guarantee that \
       secret-bearing internals are reached only through audited entry \
       points. Every lib/**/*.ml therefore ships with a matching .mli.";
    synopsis = "every lib/**/*.ml is sealed by a matching .mli";
    check }
