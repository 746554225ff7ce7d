(* A take-once memo of derived values. The two endpoints of one simulated
   connection derive many values from the same inputs: the side that
   derives one first records it here with its inputs, and the other
   side, presenting equal inputs, takes the recorded output instead of
   deriving it again. An entry serves one lookup and is removed when it
   does, so the memo holds only what one side has derived and the other
   has not yet needed. Inputs include secrets, so they are compared with
   [Bytesx.equal_ct] and never hashed into a table. *)

type entry = { tag : string; parts : string list; out : string }
type t = { mutable entries : entry list }

let create () = { entries = [] }
let length t = List.length t.entries
let put t ~tag parts out = t.entries <- { tag; parts; out } :: t.entries

(* lengths are public; tags and parts are compared in constant time *)
let matches ~tag parts len e =
  String.length e.out = len
  && Bytesx.equal_ct e.tag tag
  && List.equal Bytesx.equal_ct e.parts parts

let take t ~tag parts len =
  let rec go seen = function
    | [] -> None
    | e :: rest when matches ~tag parts len e ->
      t.entries <- List.rev_append seen rest;
      Some e.out
    | e :: rest -> go (e :: seen) rest
  in
  go [] t.entries

let once t ~tag parts len derive =
  match take t ~tag parts len with
  | Some out -> out
  | None ->
    let out = derive () in
    put t ~tag parts out;
    out
