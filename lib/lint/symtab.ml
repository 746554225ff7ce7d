open Parsetree

type def = {
  d_qual : string;
  d_name : string;
  d_scope : string;
  d_params : string list;
  d_body : expression;
  d_loc : Location.t;
  d_file : string;
}

type t = {
  t_defs : (string, def) Hashtbl.t;
  t_aliases : (string, (string, string) Hashtbl.t) Hashtbl.t;
  t_opens : (string, string list) Hashtbl.t; (* latest first *)
  t_local_opens : (string, (Location.t * string) list) Hashtbl.t;
  t_local_aliases : (string, (Location.t * string * string) list) Hashtbl.t;
  t_libs : (string, unit) Hashtbl.t;
  t_file_scope : (string, string * string) Hashtbl.t;
}

let module_name_of_file path =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename path))

(* ".../lib/<d>/<file>.ml" names a wrapped dune library whose toplevel
   module is the capitalized directory name. *)
let lib_of_path path =
  let rec find = function
    | "lib" :: d :: _ :: _ -> Some (String.capitalize_ascii d)
    | _ :: rest -> find rest
    | [] -> None
  in
  find (String.split_on_char '/' path)

let rec strip_params e =
  match e.pexp_desc with
  | Pexp_fun (label, _, pat, body) ->
    let name =
      match label with
      | Asttypes.Labelled s | Asttypes.Optional s -> s
      | Asttypes.Nolabel -> (
        match pat.ppat_desc with
        | Ppat_var { txt; _ } -> txt
        | Ppat_constraint ({ ppat_desc = Ppat_var { txt; _ }; _ }, _) -> txt
        | _ -> "_")
    in
    let params, body = strip_params body in
    (name :: params, body)
  | Pexp_newtype (_, body) -> strip_params body
  | Pexp_constraint (body, _) -> strip_params body
  | _ -> ([], e)

let add_source t (src : Source.t) =
  match src.Source.ast with
  | Source.Signature _ -> ()
  | Source.Structure str ->
    let lib = Option.value ~default:"" (lib_of_path src.Source.path) in
    let modname = module_name_of_file src.Source.path in
    Hashtbl.replace t.t_file_scope src.Source.path (lib, modname);
    if lib <> "" then Hashtbl.replace t.t_libs lib ();
    let amap = Hashtbl.create 8 in
    Hashtbl.replace t.t_aliases src.Source.path amap;
    let opens = ref [] in
    let prefix = if lib = "" then modname else lib ^ "." ^ modname in
    let rec items pfx l = List.iter (item pfx) l
    and item pfx it =
      match it.pstr_desc with
      | Pstr_value (_, vbs) ->
        List.iter
          (fun vb ->
            match vb.pvb_pat.ppat_desc with
            | Ppat_var { txt; _ } ->
              let params, body = strip_params vb.pvb_expr in
              let d =
                { d_qual = pfx ^ "." ^ txt;
                  d_name = txt;
                  d_scope = pfx;
                  d_params = params;
                  d_body = body;
                  d_loc = vb.pvb_loc;
                  d_file = src.Source.path }
              in
              Hashtbl.replace t.t_defs d.d_qual d
            | _ -> ())
          vbs
      | Pstr_module mb -> (
        match mb.pmb_name.Asttypes.txt with
        | None -> ()
        | Some sub -> (
          match mb.pmb_expr.pmod_desc with
          | Pmod_structure s
          | Pmod_constraint ({ pmod_desc = Pmod_structure s; _ }, _) ->
            items (pfx ^ "." ^ sub) s
          | Pmod_ident { txt = lid; _ } when pfx = prefix ->
            Hashtbl.replace amap sub
              (String.concat "." (Longident.flatten lid))
          | _ -> ()))
      | Pstr_open { popen_expr = { pmod_desc = Pmod_ident { txt; _ }; _ }; _ }
        when pfx = prefix ->
        opens := String.concat "." (Longident.flatten txt) :: !opens
      | _ -> ()
    in
    items prefix str;
    Hashtbl.replace t.t_opens src.Source.path !opens;
    (* [let open M in e], [M.(e)] and [M.[...]], and [let module A = M
       in e], innermost first *)
    let local = ref [] and aliases = ref [] in
    let super = Ast_iterator.default_iterator in
    let iter =
      { super with
        expr =
          (fun self e ->
            (match e.pexp_desc with
            | Pexp_open ({ popen_expr = { pmod_desc = Pmod_ident m; _ }; _ }, _)
              ->
              let m = String.concat "." (Longident.flatten m.txt) in
              local := (e.pexp_loc, m) :: !local
            | Pexp_letmodule
                ( { txt = Some a; _ },
                  { pmod_desc = Pmod_ident { txt = m; _ }; _ },
                  _ ) ->
              let m = String.concat "." (Longident.flatten m) in
              aliases := (e.pexp_loc, a, m) :: !aliases
            | _ -> ());
            super.expr self e) }
    in
    iter.Ast_iterator.structure iter str;
    Hashtbl.replace t.t_local_opens src.Source.path !local;
    Hashtbl.replace t.t_local_aliases src.Source.path !aliases

let build sources =
  let t =
    { t_defs = Hashtbl.create 512;
      t_aliases = Hashtbl.create 64;
      t_opens = Hashtbl.create 64;
      t_local_opens = Hashtbl.create 64;
      t_local_aliases = Hashtbl.create 64;
      t_libs = Hashtbl.create 8;
      t_file_scope = Hashtbl.create 64 }
  in
  List.iter (add_source t) sources;
  t

let find t qual = Hashtbl.find_opt t.t_defs qual

let defs t =
  Hashtbl.fold (fun _ d acc -> d :: acc) t.t_defs []
  |> List.sort (fun a b -> String.compare a.d_qual b.d_qual)

(* the modules opened locally around [loc] in [file], innermost first *)
let local_opens t ~file loc =
  List.filter_map
    (fun (o, m) -> if Walk.within o loc then Some m else None)
    (Option.value ~default:[] (Hashtbl.find_opt t.t_local_opens file))

let heads t ~file e =
  match Walk.ident e with
  | None -> []
  | Some name ->
    name
    :: List.map
         (fun m -> Walk.strip_stdlib (m ^ "." ^ name))
         (local_opens t ~file e.pexp_loc)

let head_in t ~file names e =
  List.find_opt (fun h -> List.mem h names) (heads t ~file e)

let resolve t ~file ?scope ?loc dotted =
  let lib, modname =
    match Hashtbl.find_opt t.t_file_scope file with
    | Some x -> x
    | None -> ("", module_name_of_file file)
  in
  let local_prefix = if lib = "" then modname else lib ^ "." ^ modname in
  let in_lib m = (if lib = "" then [] else [ lib ^ "." ^ m ]) @ [ m ] in
  (* the modules opened locally around the occurrence, innermost first;
     the enclosing module paths, innermost first, out to the file's own
     module (a nested module sees its own and its ancestors' bindings);
     then the modules the file opens, the latest first *)
  let rec outward s =
    s
    ::
    (match String.rindex_opt s '.' with
    | Some i when s <> local_prefix -> outward (String.sub s 0 i)
    | _ -> [])
  in
  let enclosing = outward (Option.value ~default:local_prefix scope) in
  let opens =
    match loc with Some l -> local_opens t ~file l | None -> []
  in
  let scopes =
    List.concat_map
      (fun m -> List.map (fun s -> s ^ "." ^ m) enclosing @ in_lib m)
      opens
    @ enclosing
    @ List.concat_map in_lib
        (Option.value ~default:[] (Hashtbl.find_opt t.t_opens file))
  in
  let try_ q = if Hashtbl.mem t.t_defs q then Some q else None in
  match String.split_on_char '.' dotted with
  | [] -> None
  | [ name ] -> List.find_map (fun s -> try_ (s ^ "." ^ name)) scopes
  | first :: rest ->
    (* a [let module] alias around the occurrence, innermost first,
       then the file's toplevel aliases *)
    let local_alias =
      match loc with
      | None -> None
      | Some l ->
        List.find_map
          (fun (o, a, m) ->
            if a = first && Walk.within o l then Some m else None)
          (Option.value ~default:[] (Hashtbl.find_opt t.t_local_aliases file))
    in
    let expanded =
      Option.map
        (fun target -> String.concat "." (target :: rest))
        (match local_alias with
        | Some _ -> local_alias
        | None -> (
          match Hashtbl.find_opt t.t_aliases file with
          | None -> None
          | Some amap -> Hashtbl.find_opt amap first))
    in
    let candidates =
      (match expanded with Some e -> in_lib e | None -> [])
      @ List.map (fun s -> s ^ "." ^ dotted) scopes
      @ (if lib = "" then [] else [ lib ^ "." ^ dotted ])
      @ (if Hashtbl.mem t.t_libs first then [ dotted ] else [])
    in
    List.find_map try_ candidates
