open Parsetree

type scope = {
  s_rule : string;
  s_file : string;
  s_line_start : int;
  s_line_end : int;
}

let attr_name = "lint.allow"

(* [@lint.allow "RULE" "reason"] — the payload parses as the string
   constant "RULE" applied to "reason" (never typechecked, so the odd
   shape is fine); a bare string or a pair is accepted too. *)
let payload_strings = function
  | PStr [ { pstr_desc = Pstr_eval (e, _); _ } ] -> (
    match e.pexp_desc with
    | Pexp_apply (f, [ (Asttypes.Nolabel, a) ]) -> (
      match (Walk.string_const f, Walk.string_const a) with
      | Some rule, Some reason -> Some (rule, reason)
      | _ -> None)
    | Pexp_tuple [ a; b ] -> (
      match (Walk.string_const a, Walk.string_const b) with
      | Some rule, Some reason -> Some (rule, reason)
      | _ -> None)
    | Pexp_constant (Pconst_string (rule, _, _)) -> Some (rule, "")
    | _ -> None)
  | _ -> None

let scopes_of_source (src : Source.t) =
  let scopes = ref [] and bad = ref [] in
  let host ~whole_file (loc : Location.t) attrs =
    List.iter
      (fun (a : attribute) ->
        if a.attr_name.Asttypes.txt = attr_name then
          match payload_strings a.attr_payload with
          | Some (rule, reason) when reason <> "" ->
            scopes :=
              { s_rule = rule;
                s_file = src.Source.path;
                s_line_start =
                  (if whole_file then 0
                   else loc.Location.loc_start.Lexing.pos_lnum);
                s_line_end =
                  (if whole_file then max_int
                   else loc.Location.loc_end.Lexing.pos_lnum) }
              :: !scopes
          | _ ->
            bad :=
              Diag.make ~rule:"LINT" ~file:src.Source.path a.attr_loc
                "lint.allow needs a rule and a non-empty reason: \
                 [@lint.allow \"RULE\" \"why this site is exempt\"]"
              :: !bad)
      attrs
  in
  let super = Ast_iterator.default_iterator in
  let iter =
    { super with
      expr =
        (fun self e ->
          host ~whole_file:false e.pexp_loc e.pexp_attributes;
          super.expr self e);
      value_binding =
        (fun self vb ->
          host ~whole_file:false vb.pvb_loc vb.pvb_attributes;
          super.value_binding self vb);
      module_binding =
        (fun self mb ->
          host ~whole_file:false mb.pmb_loc mb.pmb_attributes;
          super.module_binding self mb);
      structure_item =
        (fun self it ->
          (match it.pstr_desc with
          | Pstr_attribute a -> host ~whole_file:true it.pstr_loc [ a ]
          | _ -> ());
          super.structure_item self it);
      signature_item =
        (fun self it ->
          (match it.psig_desc with
          | Psig_attribute a -> host ~whole_file:true it.psig_loc [ a ]
          | _ -> ());
          super.signature_item self it) }
  in
  (match src.Source.ast with
  | Source.Structure str -> iter.Ast_iterator.structure iter str
  | Source.Signature sg -> iter.Ast_iterator.signature iter sg);
  (!scopes, !bad)

let suppressed ~scopes (d : Diag.t) =
  List.exists
    (fun s ->
      (s.s_rule = "*" || s.s_rule = d.Diag.rule)
      && s.s_file = d.Diag.file
      && d.Diag.line >= s.s_line_start
      && d.Diag.line <= s.s_line_end)
    scopes
