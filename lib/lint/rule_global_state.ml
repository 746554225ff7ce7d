open Parsetree

let creators =
  [ "ref";
    "Hashtbl.create";
    "Array.make";
    "Array.init";
    "Array.create_float";
    "Bytes.create";
    "Bytes.make";
    "Buffer.create";
    "Queue.create";
    "Stack.create";
    "Atomic.make";
    "Domain.DLS.new_key" ]

(* Walk only the expressions the runtime evaluates while the module
   initializes: stop at function/lazy abstractions, whose bodies run
   per call. *)
let check sources =
  let syms = Symtab.build sources in
  List.concat_map
    (fun (src : Source.t) ->
      match src.Source.ast with
      | _ when not (Walk.in_dir ~dir:"lib" src.Source.path) -> []
      | Source.Signature _ -> []
      | Source.Structure str ->
        let out = ref [] in
        let diag ~symbol loc what =
          out :=
            Diag.make ~rule:"S1" ~file:src.Source.path ~symbol loc
              (what
             ^ " at module level is mutable state shared across campaign \
                domains; guard it (mutex / atomic / Domain.DLS) or mark \
                the init-once constant with a suppression reason")
            :: !out
        in
        let rec init_expr ~symbol e =
          match e.pexp_desc with
          | Pexp_fun _ | Pexp_function _ | Pexp_lazy _ -> ()
          | _ ->
            (match e.pexp_desc with
            | Pexp_apply (f, _) -> (
              match Symtab.head_in syms ~file:src.Source.path creators f with
              | Some path -> diag ~symbol e.pexp_loc path
              | None -> ())
            | _ -> ());
            let sub = Ast_iterator.default_iterator in
            let prune =
              { sub with
                expr =
                  (fun self e' ->
                    if e' == e then sub.expr self e'
                    else init_expr ~symbol e') }
            in
            prune.Ast_iterator.expr prune e
        in
        let binding_name vb =
          match vb.pvb_pat.ppat_desc with
          | Ppat_var { txt; _ } -> txt
          | _ -> "_"
        in
        let rec item it =
          match it.pstr_desc with
          | Pstr_value (_, vbs) ->
            List.iter
              (fun vb -> init_expr ~symbol:(binding_name vb) vb.pvb_expr)
              vbs
          | Pstr_eval (e, _) -> init_expr ~symbol:"_" e
          | Pstr_module mb -> module_expr mb.pmb_expr
          | Pstr_recmodule mbs ->
            List.iter (fun mb -> module_expr mb.pmb_expr) mbs
          | _ -> ()
        and module_expr me =
          match me.pmod_desc with
          | Pmod_structure s -> List.iter item s
          | Pmod_constraint (me, _) -> module_expr me
          | _ -> () (* functors run at application time; out of scope *)
        in
        List.iter item str;
        !out)
    sources

let rule =
  { Rule.name = "S1";
    severity = Rule.Error;
    doc =
      "Campaigns run on multiple OCaml 5 domains, so module-level \
       mutable state (ref, Hashtbl.create, Array.make, Buffer.create, \
       ...) in lib/ is shared by default. Each site must either be \
       guarded (mutex, atomic, Domain.DLS) or carry an audited \
       suppression explaining why it is init-once. S2 additionally \
       follows the call graph to catch unguarded writes.";
    synopsis =
      "module-level mutable state in lib/ (ref, Hashtbl.create, \
       Array.make, ...) must be guarded or carry an audited lint.allow";
    check }
