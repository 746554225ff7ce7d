(* M2 fixture: bin/m2_main.ml calls [run], so everything [run] reaches
   is live. Expected finding count: 2 ([dead] and [dead_helper]). *)

let ( let* ) = Result.bind

module Parse = struct
  let digit c = if c >= '0' && c <= '9' then Ok (Char.code c - 48) else Error c

  (* an unqualified call to a sibling in the same nested module, and a
     binding operator from the enclosing file: both are edges *)
  let pair s =
    let* tens = digit s.[0] in
    let* ones = digit s.[1] in
    Ok ((10 * tens) + ones)
end

let run s = Parse.pair s

(* reached only from a local open in bin/m2_main.ml *)
let quoted c = Printf.sprintf "'%c'" c

(* reached from nothing *)
let dead_helper x = x * 2
let dead x = dead_helper x + 1

(* kept for a test: the allowed definition is a root, so the helper
   only it calls is live too *)
let checked_helper x = x - 1

let checked x = checked_helper x
[@@lint.allow "M2" "test: fixture, an allowed root keeps its helper live"]
