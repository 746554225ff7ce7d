open Parsetree

type t = { cg_edges : (string, string list) Hashtbl.t }

(* Every identifier occurrence counts as a use, not just application
   heads: a function passed as a value to [Pool.map] or [List.iter] is
   still called. So does every binding operator: a [let*] applies the
   [( let* )] in scope. *)
let uses syms ~file ?scope e =
  let acc = ref [] in
  let edge loc dotted =
    match Symtab.resolve syms ~file ?scope ~loc (Walk.strip_stdlib dotted) with
    | Some q -> acc := q :: !acc
    | None -> ()
  in
  let super = Ast_iterator.default_iterator in
  let iter =
    { super with
      expr =
        (fun self e ->
          (match e.pexp_desc with
          | Pexp_ident { txt; loc } ->
            edge loc (String.concat "." (Longident.flatten txt))
          | Pexp_letop { let_; ands; _ } ->
            List.iter
              (fun b -> edge b.pbop_op.loc b.pbop_op.Asttypes.txt)
              (let_ :: ands)
          | _ -> ());
          super.expr self e) }
  in
  iter.Ast_iterator.expr iter e;
  List.sort_uniq String.compare !acc

let build syms =
  let cg = { cg_edges = Hashtbl.create 512 } in
  List.iter
    (fun (d : Symtab.def) ->
      uses syms ~file:d.Symtab.d_file ~scope:d.Symtab.d_scope d.Symtab.d_body
      |> List.filter (fun q -> q <> d.Symtab.d_qual)
      |> Hashtbl.replace cg.cg_edges d.Symtab.d_qual)
    (Symtab.defs syms);
  cg

let callees t caller =
  Option.value ~default:[] (Hashtbl.find_opt t.cg_edges caller)

let vertices t =
  Hashtbl.fold (fun v _ acc -> v :: acc) t.cg_edges []
  |> List.sort String.compare

let reachable t roots =
  let seen = Hashtbl.create 256 in
  let rec visit v =
    if not (Hashtbl.mem seen v) then begin
      Hashtbl.replace seen v ();
      List.iter visit (callees t v)
    end
  in
  List.iter visit roots;
  seen

(* Definitions that hand work to the domain pool: any application whose
   head ends in [Pool.map]. The enclosing toplevel definition is the
   root — an over-approximation (its non-task code is swept in too),
   which errs on the side of reporting. *)
let pool_roots syms =
  List.filter_map
    (fun (d : Symtab.def) ->
      let found = ref false in
      let super = Ast_iterator.default_iterator in
      let iter =
        { super with
          expr =
            (fun self e ->
              (match e.pexp_desc with
              | Pexp_apply (f, _) -> (
                match Walk.ident f with
                | Some path -> (
                  match List.rev (String.split_on_char '.' path) with
                  | "map" :: "Pool" :: _ -> found := true
                  | _ -> ())
                | None -> ())
              | _ -> ());
              super.expr self e) }
      in
      iter.Ast_iterator.expr iter d.Symtab.d_body;
      if !found then Some d.Symtab.d_qual else None)
    (Symtab.defs syms)

let to_text t =
  let buf = Buffer.create 4096 in
  List.iter
    (fun v ->
      List.iter
        (fun c -> Buffer.add_string buf (Printf.sprintf "%s -> %s\n" v c))
        (callees t v))
    (vertices t);
  Buffer.contents buf

let to_dot t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "digraph pqtls_calls {\n  rankdir=LR;\n";
  List.iter
    (fun v ->
      List.iter
        (fun c ->
          Buffer.add_string buf (Printf.sprintf "  \"%s\" -> \"%s\";\n" v c))
        (callees t v))
    (vertices t);
  Buffer.add_string buf "}\n";
  Buffer.contents buf
