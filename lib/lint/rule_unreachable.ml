(* M2 — unreachable definitions. What ships is what the executables
   reach: every definition in a bin/, bench/ or examples/ file is a
   root, as is what their unnamed toplevel bindings ([let () = ...])
   use, and so is every definition under [@@lint.allow "M2" "reason"]
   (test-only code kept on purpose, whose private helpers then need no
   annotation of their own). A lib/ definition the call graph does not
   reach from those roots is flagged. Roots and lib files pair up by
   tree, the path prefix before their lib/, bin/, bench/ or examples/
   directory, and a tree without a root file is skipped: checking lib/
   alone says nothing about what the executables use. *)

(* [Some (prefix, top)]: "x/lib/tls/a.ml" -> ("x/", "lib") *)
let tree_of path =
  let rec go prefix = function
    | (("lib" | "bin" | "bench" | "examples") as top) :: _ :: _ ->
      Some (prefix, top)
    | d :: rest -> go (prefix ^ d ^ "/") rest
    | [] -> None
  in
  go "" (String.split_on_char '/' path)

let diag (d : Symtab.def) =
  Diag.make ~rule:"M2" ~file:d.Symtab.d_file ~symbol:d.Symtab.d_name
    d.Symtab.d_loc
    (Printf.sprintf
       "%s is reached from no bin/, bench/ or examples/ definition: \
        delete it, or keep it for a test under [@@lint.allow \"M2\" \
        \"<test: what it checks>\"]"
       d.Symtab.d_qual)

(* Symtab records named definitions only, and an example program is
   often a single [let () = ...] *)
let unnamed_uses syms (src : Source.t) =
  match src.Source.ast with
  | Source.Signature _ -> []
  | Source.Structure str ->
    List.concat_map
      (fun (it : Parsetree.structure_item) ->
        match it.pstr_desc with
        | Pstr_value (_, vbs) ->
          List.concat_map
            (fun (vb : Parsetree.value_binding) ->
              match vb.pvb_pat.ppat_desc with
              | Ppat_var _ -> []
              | _ -> Callgraph.uses syms ~file:src.Source.path vb.pvb_expr)
            vbs
        | Pstr_eval (e, _) -> Callgraph.uses syms ~file:src.Source.path e
        | _ -> [])
      str

let check_tree sources =
  let syms = Symtab.build sources in
  let scopes =
    List.concat_map (fun s -> fst (Allow.scopes_of_source s)) sources
  in
  let in_lib path = Option.map snd (tree_of path) = Some "lib" in
  let roots =
    List.filter_map
      (fun (d : Symtab.def) ->
        if
          (not (in_lib d.Symtab.d_file))
          || Allow.suppressed ~scopes ~entries:[] (diag d)
        then Some d.Symtab.d_qual
        else None)
      (Symtab.defs syms)
    @ List.concat_map
        (fun (s : Source.t) ->
          if in_lib s.Source.path then [] else unnamed_uses syms s)
        sources
  in
  let reach = Callgraph.reachable (Callgraph.build syms) roots in
  List.filter_map
    (fun (d : Symtab.def) ->
      if Hashtbl.mem reach d.Symtab.d_qual then None else Some (diag d))
    (Symtab.defs syms)

let check sources =
  let trees =
    List.filter_map
      (fun (src : Source.t) ->
        Option.map (fun t -> (t, src)) (tree_of src.Source.path))
      sources
  in
  List.filter_map
    (fun ((prefix, top), _) -> if top = "lib" then None else Some prefix)
    trees
  |> List.sort_uniq String.compare
  |> List.concat_map (fun prefix ->
         check_tree
           (List.filter_map
              (fun ((p, _), src) -> if p = prefix then Some src else None)
              trees))

let rule =
  { Rule.name = "M2";
    severity = Rule.Error;
    synopsis =
      "every lib/ definition is reachable from a bin/, bench/ or \
       examples/ definition, or kept for a test under [@@lint.allow \
       \"M2\" \"reason\"]";
    doc =
      "The library ships only what the executables use. Every \
       definition in a bin/, bench/ or examples/ file is a root, as is \
       what their unnamed toplevel bindings (let () = ...) use and \
       every definition under [@@lint.allow \"M2\" \"<test: what it \
       checks>\"]; a lib/ definition the call graph reaches from no \
       root is dead code and is reported, one finding per definition. \
       Roots and lib files pair up by the path prefix before their \
       top directory, and a tree with no root file is skipped.";
    check }
