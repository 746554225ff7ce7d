type severity = Error | Warning

type run = {
  sources : Source.t list;
  syms : Symtab.t;
  scopes : Allow.scope list;
}

type t = {
  name : string;
  severity : severity;
  synopsis : string;
  doc : string;
  check : run -> Diag.t list;
}

let severity_string = function Error -> "error" | Warning -> "warning"
