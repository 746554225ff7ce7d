open Parsetree

(* S2 — cross-domain mutation. S1 flags module-level mutable state at
   its birthplace; S2 follows the call graph and flags the *writes*:
   any store into toplevel mutable state performed by a function
   reachable from a [Pool.map] task site races across domains unless it
   happens inside [Mutex.protect] (atomics are exempt — they are safe
   by construction and never enter the mutable set). *)

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
    "Stack.create" ]

let allocates_mutable syms (d : Symtab.def) =
  let found = ref false in
  let super = Ast_iterator.default_iterator in
  let iter =
    { super with
      expr =
        (fun self e ->
          match e.pexp_desc with
          | Pexp_fun _ | Pexp_function _ | Pexp_lazy _ -> ()
          | Pexp_apply (f, _) ->
            if Symtab.head_in syms ~file:d.Symtab.d_file creators f <> None
            then found := true;
            super.expr self e
          | _ -> super.expr self e) }
  in
  iter.Ast_iterator.expr iter d.Symtab.d_body;
  !found

(* [head parts -> index of the mutated positional argument] *)
let write_target_index parts =
  match parts with
  | [ (":=" | "incr" | "decr") ] -> Some 0
  | [ "Hashtbl"; ("add" | "replace" | "remove" | "reset" | "clear") ] ->
    Some 0
  | [ ("Array" | "Bytes"); ("set" | "fill" | "blit" | "unsafe_set") ] ->
    Some 0
  | [ "Buffer"; f ]
    when f = "clear" || f = "reset" || f = "truncate"
         || (String.length f > 4 && String.sub f 0 4 = "add_") ->
    Some 0
  | [ "Queue"; ("push" | "add") ] | [ "Stack"; "push" ] -> Some 1
  | [ ("Queue" | "Stack"); ("pop" | "take" | "clear") ] -> Some 0
  | _ -> None

let check { Rule.syms; _ } =
  let cg = Callgraph.build syms in
  let reach = Callgraph.reachable cg (Callgraph.pool_roots syms) in
  let mutables = Hashtbl.create 64 in
  List.iter
    (fun (d : Symtab.def) ->
      if
        d.Symtab.d_params = []
        && Walk.in_dir ~dir:"lib" d.Symtab.d_file
        && allocates_mutable syms d
      then Hashtbl.replace mutables d.Symtab.d_qual ())
    (Symtab.defs syms);
  List.concat_map
    (fun (d : Symtab.def) ->
      if
        (not (Hashtbl.mem reach d.Symtab.d_qual))
        || not (Walk.in_dir ~dir:"lib" d.Symtab.d_file)
      then []
      else begin
        let resolve_target e =
          match Walk.ident e with
          | Some dotted -> (
            match
              Symtab.resolve syms ~file:d.Symtab.d_file
                ~scope:d.Symtab.d_scope ~loc:e.pexp_loc dotted
            with
            | Some q when Hashtbl.mem mutables q -> Some q
            | _ -> None)
          | None -> None
        in
        let guards = ref [] and writes = ref [] in
        let super = Ast_iterator.default_iterator in
        let iter =
          { super with
            expr =
              (fun self e ->
                (match e.pexp_desc with
                | Pexp_apply (f, args) -> (
                  let heads =
                    List.map
                      (String.split_on_char '.')
                      (Symtab.heads syms ~file:d.Symtab.d_file f)
                  in
                  if
                    List.exists
                      (fun parts ->
                        match List.rev parts with
                        | "protect" :: "Mutex" :: _ -> true
                        | _ -> false)
                      heads
                  then guards := e.pexp_loc :: !guards;
                  match List.find_map write_target_index heads with
                  | Some i -> (
                    let positional =
                      List.filter_map
                        (function Asttypes.Nolabel, a -> Some a | _ -> None)
                        args
                    in
                    match List.nth_opt positional i with
                    | Some target -> (
                      match resolve_target target with
                      | Some q -> writes := (e.pexp_loc, q) :: !writes
                      | None -> ())
                    | None -> ())
                  | None -> ())
                | Pexp_setfield (base, _, _) -> (
                  match resolve_target base with
                  | Some q -> writes := (e.pexp_loc, q) :: !writes
                  | None -> ())
                | _ -> ());
                super.expr self e) }
        in
        iter.Ast_iterator.expr iter d.Symtab.d_body;
        List.rev !writes
        |> List.filter_map (fun (loc, q) ->
               if List.exists (fun g -> Walk.within g loc) !guards then None
               else
                 Some
                   (Diag.make ~rule:"S2" ~file:d.Symtab.d_file
                      ~symbol:d.Symtab.d_name loc
                      (Printf.sprintf
                         "write to module-level mutable %s from a \
                          function reachable from a Core.Pool task: \
                          racing domains corrupt it; wrap the access \
                          in Mutex.protect or switch to Atomic"
                         q)))
      end)
    (Symtab.defs syms)

let rule =
  { Rule.name = "S2";
    severity = Rule.Error;
    synopsis =
      "module-level mutable state written from functions reachable \
       from Core.Pool tasks must be under Mutex.protect";
    doc =
      "Campaigns fan out over OCaml 5 domains via Core.Pool, so any \
       store into toplevel mutable state (refs, Hashtbl, Buffer, ...) \
       performed by a function reachable — through the call graph — \
       from a Pool.map task closure is a data race. The rule resolves \
       the written name back to its definition, walks the call graph \
       from every Pool.map site, and accepts only writes wrapped in \
       Mutex.protect; Atomic state is exempt by construction.";
    check }
