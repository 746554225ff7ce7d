(* C2 — interprocedural secret-flow. The heavy lifting lives in
   [Symtab] (whole-tree symbol table), [Taint] (lattice + summaries):
   this rule just wires them to the engine. All parsed sources feed the
   symbol table, so taint crosses library boundaries (an HKDF output
   born in lib/crypto is still secret inside lib/tls); diagnostics are
   confined to the crypto-bearing directories. *)

let check { Rule.syms; _ } = Taint.check (Taint.analyse syms)

let rule =
  { Rule.name = "C2";
    severity = Rule.Error;
    synopsis =
      "secret-derived values (HKDF outputs, KEM shared secrets, \
       *_secret/psk bindings) must not reach branches, variable-time \
       compares, Printf, exception payloads or Hashtbl keys";
    doc =
      "Call-graph taint analysis seeded at Hkdf.extract/expand results, \
       KEM decaps/encaps shared secrets and secret-named bindings, \
       propagated through lets, tuples, records and one-level function \
       summaries. A tainted value reaching an if/match scrutinee, a \
       guard, String/Bytes/polymorphic comparison, Printf/Format, an \
       exception payload or a Hashtbl key is a timing or logging leak. \
       Bytesx.equal_ct is the approved constant-time comparator and \
       clears taint; an audited observation point is annotated \
       [@lint.declassify \"reason\"].";
    check }
