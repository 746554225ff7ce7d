open Parsetree

let dirs = [ "lib/crypto"; "lib/pqc"; "lib/tls" ]

let banned_idents =
  [ "String.equal"; "Bytes.equal"; "String.compare"; "Bytes.compare" ]

let poly_compare = [ "="; "<>"; "=="; "!="; "compare" ]

let check sources =
  let syms = Symtab.build sources in
  List.concat_map
    (fun (src : Source.t) ->
      let in_scope =
        List.exists (fun dir -> Walk.in_dir ~dir src.Source.path) dirs
      in
      match src.Source.ast with
      | _ when not in_scope -> []
      | Source.Signature _ -> []
      | Source.Structure str ->
        let out = ref [] in
        let diag ~symbol loc msg =
          out := Diag.make ~rule:"C1" ~file:src.Source.path ~symbol loc msg
                 :: !out
        in
        let among = Symtab.head_in syms ~file:src.Source.path in
        Walk.iter_expressions str (fun ~symbol e ->
            match e.pexp_desc with
            | Pexp_ident _ -> (
              match among banned_idents e with
              | Some path ->
                diag ~symbol e.pexp_loc
                  (path
                 ^ " short-circuits on the first differing byte; use \
                    Bytesx.equal_ct for anything secret-adjacent")
              | None -> ())
            | Pexp_apply (op, args) -> (
              match among poly_compare op with
              | Some name
                when List.exists
                          (fun (_, a) -> Walk.string_const a <> None)
                          args ->
                diag ~symbol op.pexp_loc
                  ("polymorphic " ^ name
                 ^ " on a string is not constant-time; use \
                    Bytesx.equal_ct (or suppress for public values)")
              | _ -> ())
            | _ -> ());
        !out)
    sources

let rule =
  { Rule.name = "C1";
    severity = Rule.Error;
    doc =
      "Early-exit byte comparison leaks the position of the first \
       mismatch through timing. In the cryptographic directories \
       (lib/crypto, lib/pqc, lib/tls) every String/Bytes equality or \
       comparison — including polymorphic = on byte-string evidence — \
       must go through the constant-time Bytesx.equal_ct. C2 extends \
       this syntactic check with interprocedural taint tracking.";
    synopsis =
      "in lib/{crypto,pqc,tls}: byte-string comparison goes through \
       Bytesx.equal_ct, never String/Bytes.equal or polymorphic =";
    check }
