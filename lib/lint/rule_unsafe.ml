open Parsetree

(* U1 — unchecked accesses are confined to reviewed kernels. A module
   may use Bytes/String/Array.unsafe_* or Obj.magic, or bind an
   [external] to an unchecked accessor primitive, only when it opens
   with a floating [@@@lint.kernel "bounds argument"] stating why every
   index in the file is in range. The annotation is two-way: a kernel
   marker on a module with no unsafe operations is stale and flagged
   too, so the set of reviewed kernels never silently grows or rots. *)

let kernel_attr = "lint.kernel"

let unsafe_ident path =
  match String.split_on_char '.' path with
  | [ ("Bytes" | "String" | "Array"); f ] ->
    String.length f > 7 && String.sub f 0 7 = "unsafe_"
  | [ "Obj"; "magic" ] -> true
  | _ -> false

(* the compiler primitives behind the unchecked accessors, which an
   [external] can bind directly *)
let unsafe_primitives =
  [ "%array_unsafe_get"; "%array_unsafe_set"; "%string_unsafe_get";
    "%bytes_unsafe_get"; "%bytes_unsafe_set" ]
  @ List.concat_map
      (fun bits ->
        [ "%caml_string_get" ^ bits ^ "u"; "%caml_bytes_get" ^ bits ^ "u";
          "%caml_bytes_set" ^ bits ^ "u" ])
      [ "16"; "32"; "64" ]

(* every [external] in [str], nested modules included, bound to an
   unchecked primitive: (name, location, primitive) *)
let unsafe_externals str =
  let found = ref [] in
  let super = Ast_iterator.default_iterator in
  let iter =
    { super with
      structure_item =
        (fun self it ->
          (match it.pstr_desc with
          | Pstr_primitive vd ->
            List.iter
              (fun prim ->
                if List.mem prim unsafe_primitives then
                  found := (vd.pval_name.Asttypes.txt, vd.pval_loc, prim) :: !found)
              vd.pval_prim
          | _ -> ());
          super.structure_item self it) }
  in
  iter.Ast_iterator.structure iter str;
  List.rev !found

let kernel_reason str =
  List.find_map
    (fun it ->
      match it.pstr_desc with
      | Pstr_attribute a when a.attr_name.Asttypes.txt = kernel_attr -> (
        match a.attr_payload with
        | PStr [ { pstr_desc = Pstr_eval (e, _); _ } ] ->
          Some (a.attr_loc, Option.value ~default:"" (Walk.string_const e))
        | _ -> Some (a.attr_loc, ""))
      | _ -> None)
    str

let check sources =
  let syms = Symtab.build sources in
  List.concat_map
    (fun (src : Source.t) ->
      match src.Source.ast with
      | _ when not (Walk.in_dir ~dir:"lib" src.Source.path) -> []
      | Source.Signature _ -> []
      | Source.Structure str ->
        let uses = ref [] in
        Walk.iter_expressions str (fun ~symbol e ->
            match
              List.find_opt unsafe_ident
                (Symtab.heads syms ~file:src.Source.path e)
            with
            | Some path -> uses := (symbol, e.pexp_loc, path) :: !uses
            | None -> ());
        let uses =
          List.rev !uses
          @ List.map
              (fun (name, loc, prim) ->
                (name, loc, "external " ^ name ^ " = \"" ^ prim ^ "\""))
              (unsafe_externals str)
        in
        (match kernel_reason str with
        | Some (_, reason) when reason <> "" && uses <> [] -> []
        | Some (loc, "") ->
          [ Diag.make ~rule:"U1" ~file:src.Source.path loc
              "lint.kernel needs a bounds argument: [@@@lint.kernel \
               \"why every unchecked index in this file is in range\"]" ]
        | Some (loc, _) ->
          [ Diag.make ~rule:"U1" ~file:src.Source.path loc
              "stale [@@@lint.kernel]: this module performs no unsafe \
               operations; drop the annotation" ]
        | None ->
          List.map
            (fun (symbol, loc, path) ->
              Diag.make ~rule:"U1" ~file:src.Source.path ~symbol loc
                (path
               ^ " outside a reviewed kernel: unchecked accesses are \
                  allowed only in modules opening with [@@@lint.kernel \
                  \"bounds argument\"]"))
            uses))
    sources

let rule =
  { Rule.name = "U1";
    severity = Rule.Error;
    synopsis =
      "Bytes/String/Array.unsafe_*, Obj.magic and externals bound to \
       unchecked primitives live only in modules annotated \
       [@@@lint.kernel \"bounds argument\"]";
    doc =
      "Unchecked accesses are the fuel of ROADMAP item 1's hot-path \
       kernels, and they must stay inside small reviewed files. A \
       module using Bytes.unsafe_*, String.unsafe_*, Array.unsafe_* or \
       Obj.magic, or declaring an external bound to an unchecked \
       accessor primitive (%caml_bytes_get64u, %array_unsafe_get and \
       the like), needs a toplevel [@@@lint.kernel \"...\"] annotation \
       whose payload argues why every index is in bounds; a kernel \
       annotation on a module with no unsafe operations is flagged as \
       stale so the reviewed set stays exact.";
    check }
