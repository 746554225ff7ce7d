open Parsetree

type tv = Pure | Tainted | Tup of tv list | Rec of (string * tv) list

type summary = { s_ret : bool; s_arg_to_ret : bool }

type t = { a_syms : Symtab.t; a_summaries : (string, summary) Hashtbl.t }

let rec is_tainted = function
  | Pure -> false
  | Tainted -> true
  | Tup l -> List.exists is_tainted l
  | Rec l -> List.exists (fun (_, v) -> is_tainted v) l

let collapse v = if is_tainted v then Tainted else Pure

let rec join a b =
  match (a, b) with
  | Pure, v | v, Pure -> v
  | Tainted, _ | _, Tainted -> Tainted
  | Tup x, Tup y when List.length x = List.length y ->
    Tup (List.map2 join x y)
  | Rec x, Rec y ->
    let names =
      List.sort_uniq String.compare (List.map fst x @ List.map fst y)
    in
    Rec
      (List.map
         (fun n ->
           match (List.assoc_opt n x, List.assoc_opt n y) with
           | Some a, Some b -> (n, join a b)
           | Some v, None | None, Some v -> (n, v)
           | None, None -> (n, Pure))
         names)
  | a, b -> if is_tainted a || is_tainted b then Tainted else Pure

(* Name seeding: bindings, parameters and record fields with these
   names carry key material by convention in this tree, so they are
   taint sources even when the defining expression is opaque. *)
let secret_exact = [ "psk"; "secret"; "binder_key"; "ticket_key"; "stek" ]
let secret_suffixes = [ "_secret"; "_psk"; "_binder_key"; "_ticket_key" ]

let secret_name n =
  List.mem n secret_exact
  || List.exists (fun s -> Filename.check_suffix n s) secret_suffixes

let scope_dirs = [ "lib/crypto"; "lib/pqc"; "lib/tls" ]
let in_scope path = List.exists (fun d -> Walk.in_dir ~dir:d path) scope_dirs

let declassify_attr = "lint.declassify"

let declassify_reason attrs =
  List.find_map
    (fun (a : attribute) ->
      if a.attr_name.Asttypes.txt = declassify_attr then
        match a.attr_payload with
        | PStr [ { pstr_desc = Pstr_eval (e, _); _ } ] ->
          Some (a.attr_loc, Option.value ~default:"" (Walk.string_const e))
        | _ -> Some (a.attr_loc, "")
      else None)
    attrs

let dotted_of_lid lid =
  Walk.strip_stdlib (String.concat "." (Longident.flatten lid))

let byte_compares =
  [ "String.equal"; "String.compare"; "Bytes.equal"; "Bytes.compare" ]

let poly_compares = [ "="; "<>"; "=="; "!="; "compare" ]
let banned_compare = byte_compares @ poly_compares

let format_heads =
  [ "print_string"; "print_endline"; "print_newline"; "print_int";
    "print_char"; "prerr_string"; "prerr_endline" ]

let raise_heads = [ "raise"; "raise_notrace"; "failwith"; "invalid_arg" ]

let hashtbl_key_ops =
  [ "add"; "replace"; "find"; "find_opt"; "find_all"; "mem"; "remove" ]

type ctx = {
  c_syms : Symtab.t;
  c_summaries : (string, summary) Hashtbl.t;
  c_file : string;
  c_scope : string;
  c_symbol : string;
  c_emit : bool;
  mutable c_diags : Diag.t list;
}

let diag ctx loc msg =
  if ctx.c_emit then
    ctx.c_diags <-
      Diag.make ~rule:"C2" ~file:ctx.c_file ~symbol:ctx.c_symbol loc msg
      :: ctx.c_diags

(* the names an applied function may denote, split on dots: an
   identifier's {!Symtab.heads}, a field access [r.f]'s [f] (e.g.
   [(kem cfg).encaps rng pk]), none for a computed function *)
let head_parts ctx e =
  match e.pexp_desc with
  | Pexp_field (_, { txt; _ }) -> [ [ Longident.last txt ] ]
  | _ ->
    List.map (String.split_on_char '.')
      (Symtab.heads ctx.c_syms ~file:ctx.c_file e)

let summary_of ctx q =
  Option.value ~default:{ s_ret = false; s_arg_to_ret = false }
    (Hashtbl.find_opt ctx.c_summaries q)

let rec bind_pat env pat v =
  match pat.ppat_desc with
  | Ppat_var { txt; _ } ->
    (txt, (if secret_name txt then Tainted else v)) :: env
  | Ppat_alias (p, { txt; _ }) -> bind_pat ((txt, collapse v) :: env) p v
  | Ppat_tuple ps -> (
    match v with
    | Tup vs when List.length vs = List.length ps ->
      List.fold_left2 bind_pat env ps vs
    | _ ->
      List.fold_left (fun acc p -> bind_pat acc p (collapse v)) env ps)
  | Ppat_record (fields, _) ->
    List.fold_left
      (fun acc ((lid : Longident.t Asttypes.loc), p) ->
        let fname = Longident.last lid.Asttypes.txt in
        let fv =
          match v with
          | Rec fs when List.mem_assoc fname fs -> List.assoc fname fs
          | _ -> if secret_name fname then Tainted else collapse v
        in
        bind_pat acc p fv)
      env fields
  | Ppat_construct (_, Some (_, p)) | Ppat_variant (_, Some p) ->
    bind_pat env p (collapse v)
  | Ppat_constraint (p, _) | Ppat_lazy p | Ppat_open (_, p) ->
    bind_pat env p v
  | Ppat_or (a, b) -> bind_pat (bind_pat env a v) b v
  | _ -> env

let rec eval ctx env e =
  match declassify_reason e.pexp_attributes with
  | Some (loc, "") ->
    if ctx.c_emit then
      ctx.c_diags <-
        Diag.make ~rule:"LINT" ~file:ctx.c_file ~symbol:ctx.c_symbol loc
          "lint.declassify needs a non-empty reason: [@lint.declassify \
           \"why this value may be observed\"]"
        :: ctx.c_diags;
    eval_desc ctx env e
  | Some (_, _) ->
    (* Audited declassification: the subtree is still checked, but the
       value it produces is public from here on. *)
    ignore (eval_desc ctx env e);
    Pure
  | None -> eval_desc ctx env e

and eval_desc ctx env e =
  match e.pexp_desc with
  | Pexp_constant _ -> Pure
  | Pexp_ident { txt; _ } -> (
    let dotted = dotted_of_lid txt in
    match String.split_on_char '.' dotted with
    | [ name ] when List.mem_assoc name env -> List.assoc name env
    | _ -> (
      match
        Symtab.resolve ctx.c_syms ~file:ctx.c_file ~scope:ctx.c_scope
          ~loc:e.pexp_loc dotted
      with
      | Some q -> (
        match Symtab.find ctx.c_syms q with
        | Some d when d.Symtab.d_params = [] ->
          if (summary_of ctx q).s_ret then Tainted else Pure
        | _ -> Pure)
      | None -> Pure))
  | Pexp_let (_, vbs, body) ->
    let env' =
      List.fold_left
        (fun acc vb -> bind_pat acc vb.pvb_pat (eval ctx env vb.pvb_expr))
        env vbs
    in
    eval ctx env' body
  | Pexp_fun (label, default, pat, body) ->
    Option.iter (fun d -> ignore (eval ctx env d)) default;
    ignore label;
    ignore (eval ctx (bind_pat env pat Pure) body);
    Pure
  | Pexp_function cases ->
    List.iter (fun c -> ignore (eval_case ctx env Pure c)) cases;
    Pure
  | Pexp_apply (f, args) -> eval_apply ctx env f args
  | Pexp_match (scrut, cases) ->
    let sv = eval ctx env scrut in
    if is_tainted sv then
      diag ctx scrut.pexp_loc
        "match scrutinee is secret-derived: decisions on key material \
         are observable; compare via Bytesx.equal_ct or mark an audited \
         site with [@lint.declassify \"reason\"]";
    List.fold_left (fun acc c -> join acc (eval_case ctx env sv c)) Pure cases
  | Pexp_try (body, cases) ->
    let bv = eval ctx env body in
    List.fold_left
      (fun acc c -> join acc (eval_case ctx env Pure c))
      bv cases
  | Pexp_ifthenelse (cond, th, el) ->
    let cv = eval ctx env cond in
    if is_tainted cv then
      diag ctx cond.pexp_loc
        "branch condition depends on secret-derived data: timing leaks \
         the secret; use Bytesx.equal_ct or [@lint.declassify \
         \"reason\"]";
    let tv = eval ctx env th in
    let ev =
      match el with Some el -> eval ctx env el | None -> Pure
    in
    join tv ev
  | Pexp_while (cond, body) ->
    let cv = eval ctx env cond in
    if is_tainted cv then
      diag ctx cond.pexp_loc
        "loop condition depends on secret-derived data (iteration count \
         is observable timing)";
    ignore (eval ctx env body);
    Pure
  | Pexp_for (_, lo, hi, _, body) ->
    if is_tainted (eval ctx env lo) || is_tainted (eval ctx env hi) then
      diag ctx e.pexp_loc
        "for-loop bound depends on secret-derived data (iteration count \
         is observable timing)";
    ignore (eval ctx env body);
    Pure
  | Pexp_assert cond ->
    if is_tainted (eval ctx env cond) then
      diag ctx cond.pexp_loc "assert condition depends on secret-derived data";
    Pure
  | Pexp_tuple es -> Tup (List.map (eval ctx env) es)
  | Pexp_construct (_, None) -> Pure
  | Pexp_construct (_, Some arg) | Pexp_variant (_, Some arg) ->
    collapse (eval ctx env arg)
  | Pexp_variant (_, None) -> Pure
  | Pexp_record (fields, base) ->
    let bv =
      match base with Some b -> eval ctx env b | None -> Rec []
    in
    let fv =
      Rec
        (List.map
           (fun ((lid : Longident.t Asttypes.loc), fe) ->
             (Longident.last lid.Asttypes.txt, eval ctx env fe))
           fields)
    in
    join fv bv
  | Pexp_field (b, { txt; _ }) -> (
    let bv = eval ctx env b in
    let fname = Longident.last txt in
    match bv with
    | Rec fs when List.mem_assoc fname fs -> List.assoc fname fs
    | _ -> if secret_name fname then Tainted else collapse bv)
  | Pexp_setfield (b, _, v) ->
    ignore (eval ctx env b);
    ignore (eval ctx env v);
    Pure
  | Pexp_array es ->
    collapse (List.fold_left (fun acc x -> join acc (eval ctx env x)) Pure es)
  | Pexp_sequence (a, b) ->
    ignore (eval ctx env a);
    eval ctx env b
  | Pexp_constraint (x, _) | Pexp_coerce (x, _, _) | Pexp_lazy x ->
    eval ctx env x
  | Pexp_open (_, body)
  | Pexp_letexception (_, body)
  | Pexp_letmodule (_, _, body) ->
    eval ctx env body
  | Pexp_newtype (_, body) -> eval ctx env body
  | _ -> Pure

and eval_case ctx env sv (c : case) =
  let env' = bind_pat env c.pc_lhs sv in
  (match c.pc_guard with
  | Some g ->
    if is_tainted (eval ctx env' g) then
      diag ctx g.pexp_loc
        "match guard depends on secret-derived data (timing leak)"
  | None -> ());
  eval ctx env' c.pc_rhs

and eval_apply ctx env f args =
  let heads = head_parts ctx f in
  match (heads, args) with
  | [ "@@" ] :: _, [ (_, g); (_, x) ] ->
    eval_app_expr ctx env g [ (Asttypes.Nolabel, x) ]
  | [ "|>" ] :: _, [ (_, x); (_, g) ] ->
    eval_app_expr ctx env g [ (Asttypes.Nolabel, x) ]
  | _ ->
    let argvs = List.map (fun (lbl, a) -> (lbl, a, eval ctx env a)) args in
    let any_tainted = List.exists (fun (_, _, v) -> is_tainted v) argvs in
    let join_args =
      List.fold_left (fun acc (_, _, v) -> join acc v) Pure argvs
    in
    let by_last_name last =
      match last with
      | "encaps" -> Some (Tup [ Pure; Tainted ])
      | "decaps" -> Some Tainted
      | "equal_ct" -> Some Pure
      | "length" -> Some Pure
      | _ -> None
    in
    (match heads with
    | [] ->
      (* computed function, e.g. a closure *)
      ignore (eval ctx env f);
      collapse join_args
    | parts :: _ ->
      let name = String.concat "." parts in
      let last = List.nth parts (List.length parts - 1) in
      let any p = List.exists p heads in
      let names = List.map (String.concat ".") heads in
      let among l = List.find_opt (fun n -> List.mem n l) names in
      if
        any (fun h ->
            match List.rev h with
            | ("extract" | "expand") :: "Hkdf" :: _ -> true
            | _ -> false)
      then Tainted
      else if last = "equal_ct" then Pure
      else begin
        if ctx.c_emit && any_tainted then begin
          Option.iter
            (fun n ->
              diag ctx f.pexp_loc
                (Printf.sprintf
                   "secret-derived data reaches variable-time comparison \
                    %s; use Crypto.Bytesx.equal_ct"
                   n))
            (among banned_compare);
          if any (function ("Printf" | "Format") :: _ -> true | _ -> false)
          then
            diag ctx f.pexp_loc
              "secret-derived data reaches Printf/Format output"
          else if among format_heads <> None then
            diag ctx f.pexp_loc "secret-derived data reaches terminal output";
          if among raise_heads <> None then
            diag ctx f.pexp_loc
              "secret-derived data in an exception payload escapes the \
               constant-time boundary";
          if
            any (function
              | [ "Hashtbl"; op ] -> List.mem op hashtbl_key_ops
              | _ -> false)
          then (
            match
              List.filter (fun (l, _, _) -> l = Asttypes.Nolabel) argvs
            with
            | _ :: (_, _, kv) :: _ when is_tainted kv ->
              diag ctx f.pexp_loc
                "secret-derived data used as a Hashtbl key (hashing \
                 time and bucket layout are observable)"
            | _ -> ())
        end;
        let resolved =
          match parts with
          | [ n ] when List.mem_assoc n env -> None
          | _ ->
            Symtab.resolve ctx.c_syms ~file:ctx.c_file ~scope:ctx.c_scope
              ~loc:f.pexp_loc name
        in
        match resolved with
        | Some q ->
          let s = summary_of ctx q in
          if s.s_ret || (s.s_arg_to_ret && any_tainted) then Tainted
          else Pure
        | None -> (
          match by_last_name last with
          | Some v -> v
          | None -> collapse join_args)
      end)

and eval_app_expr ctx env g extra =
  match g.pexp_desc with
  | Pexp_apply (h, args0) -> eval_apply ctx env h (args0 @ extra)
  | _ -> eval_apply ctx env g extra

let run_def ctx (d : Symtab.def) ~seed_params =
  let env =
    List.map
      (fun p ->
        (p, if seed_params && secret_name p then Tainted else Pure))
      d.Symtab.d_params
  in
  eval ctx env d.Symtab.d_body

let analyse syms =
  let summaries = Hashtbl.create 512 in
  let ds = Symtab.defs syms in
  List.iter
    (fun (d : Symtab.def) ->
      Hashtbl.replace summaries d.Symtab.d_qual
        { s_ret = false; s_arg_to_ret = false })
    ds;
  let changed = ref true and rounds = ref 0 in
  while !changed && !rounds < 10 do
    changed := false;
    incr rounds;
    List.iter
      (fun (d : Symtab.def) ->
        let ctx =
          { c_syms = syms;
            c_summaries = summaries;
            c_file = d.Symtab.d_file;
            c_scope = d.Symtab.d_scope;
            c_symbol = d.Symtab.d_name;
            c_emit = false;
            c_diags = [] }
        in
        let ret_pure =
          is_tainted
            (eval ctx
               (List.map (fun p -> (p, Pure)) d.Symtab.d_params)
               d.Symtab.d_body)
        in
        let ret_tainted =
          is_tainted
            (eval ctx
               (List.map (fun p -> (p, Tainted)) d.Symtab.d_params)
               d.Symtab.d_body)
        in
        let cur = Hashtbl.find summaries d.Symtab.d_qual in
        let next =
          { s_ret = cur.s_ret || ret_pure;
            s_arg_to_ret = cur.s_arg_to_ret || ret_tainted }
        in
        if next <> cur then begin
          Hashtbl.replace summaries d.Symtab.d_qual next;
          changed := true
        end)
      ds
  done;
  { a_syms = syms; a_summaries = summaries }

let summary t qual = Hashtbl.find_opt t.a_summaries qual
[@@lint.allow "M2" "test: lint taint summaries: the per-definition summaries \
                    C2 computes to fixpoint"]

let check_def t (d : Symtab.def) =
  let ctx =
    { c_syms = t.a_syms;
      c_summaries = t.a_summaries;
      c_file = d.Symtab.d_file;
      c_scope = d.Symtab.d_scope;
      c_symbol = d.Symtab.d_name;
      c_emit = true;
      c_diags = [] }
  in
  ignore (run_def ctx d ~seed_params:true);
  List.rev ctx.c_diags

let check t =
  List.concat_map
    (fun (d : Symtab.def) ->
      if in_scope d.Symtab.d_file then check_def t d else [])
    (Symtab.defs t.a_syms)
