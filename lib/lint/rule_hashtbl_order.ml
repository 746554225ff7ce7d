open Parsetree

let enumerators = [ "Hashtbl.iter"; "Hashtbl.fold" ]

let sorts =
  [ "List.sort"; "List.stable_sort"; "List.fast_sort"; "List.sort_uniq";
    "Array.sort"; "Array.stable_sort" ]

(* A fold is fine when a sort consumes it in the same expression; we
   mark those call sites in a first pass, then flag every unmarked
   enumeration. *)
let check sources =
  let syms = Symtab.build sources in
  List.concat_map
    (fun (src : Source.t) ->
      match src.Source.ast with
      | Source.Signature _ -> []
      | Source.Structure str ->
        let among = Symtab.head_in syms ~file:src.Source.path in
        (* an application's head, or the expression itself *)
        let app e = match e.pexp_desc with Pexp_apply (f, _) -> f | _ -> e in
        let sorted = ref [] in
        let mark e =
          if among enumerators (app e) <> None then
            sorted := e.pexp_loc :: !sorted
        in
        Walk.iter_expressions str (fun ~symbol:_ e ->
            match e.pexp_desc with
            | Pexp_apply (f, args) when among sorts f <> None ->
              List.iter (fun (_, a) -> mark a) args
            | Pexp_apply (op, [ (_, lhs); (_, rhs) ]) -> (
              match Walk.ident op with
              | Some "|>" when among sorts (app rhs) <> None -> mark lhs
              | Some "@@" when among sorts (app lhs) <> None -> mark rhs
              | _ -> ())
            | _ -> ());
        let out = ref [] in
        Walk.iter_expressions str (fun ~symbol e ->
            match among enumerators e with
            | Some path ->
              (* consumed when the enumerator ident sits inside a
                 marked (sorted) application *)
              if not (List.exists (fun l -> Walk.within l e.pexp_loc) !sorted)
              then
                out :=
                  Diag.make ~rule:"D2" ~file:src.Source.path ~symbol
                    e.pexp_loc
                    (path
                   ^ " enumerates in hash-bucket order; sort the result \
                      where it is produced (… |> List.sort cmp) or \
                      suppress with a reason if order cannot escape")
                  :: !out
            | None -> ());
        !out)
    sources

let rule =
  { Rule.name = "D2";
    severity = Rule.Error;
    doc =
      "Hashtbl iteration order depends on the hash seed and insertion \
       history, so results of Hashtbl.iter/fold must be sorted at the \
       producer before they can reach a campaign artifact; otherwise \
       two identical runs can emit differently-ordered reports.";
    synopsis =
      "Hashtbl.iter/fold results must be sorted at the producer before \
       they can reach an artifact";
    check }
