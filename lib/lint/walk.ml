open Parsetree

let strip_stdlib path =
  match String.index_opt path '.' with
  | Some 6 when String.sub path 0 6 = "Stdlib" ->
    String.sub path 7 (String.length path - 7)
  | _ -> path

let ident e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } ->
    Some (strip_stdlib (String.concat "." (Longident.flatten txt)))
  | _ -> None

let within (outer : Location.t) (inner : Location.t) =
  inner.Location.loc_start.Lexing.pos_cnum
  >= outer.Location.loc_start.Lexing.pos_cnum
  && inner.Location.loc_end.Lexing.pos_cnum
     <= outer.Location.loc_end.Lexing.pos_cnum

let string_const e =
  match e.pexp_desc with
  | Pexp_constant (Pconst_string (s, _, _)) -> Some s
  | _ -> None

let in_dir ~dir path =
  let dir_slash = dir ^ "/" in
  let n = String.length dir_slash and m = String.length path in
  let prefix = m >= n && String.sub path 0 n = dir_slash in
  let rec inside i =
    if i + n + 1 > m then false
    else if path.[i] = '/' && String.sub path (i + 1) n = dir_slash then true
    else inside (i + 1)
  in
  prefix || inside 0

let iter_expressions str f =
  let symbol = ref "" in
  let super = Ast_iterator.default_iterator in
  let iter =
    { super with
      value_binding =
        (fun self vb ->
          let saved = !symbol in
          (if saved = "" then
             match vb.pvb_pat.ppat_desc with
             | Ppat_var { txt; _ } -> symbol := txt
             | _ -> symbol := "_");
          super.value_binding self vb;
          symbol := saved);
      expr =
        (fun self e ->
          f ~symbol:!symbol e;
          super.expr self e) }
  in
  iter.Ast_iterator.structure iter str
