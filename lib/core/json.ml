(* A minimal JSON layer for the metrics artifacts: the printer is
   deterministic (object fields keep their construction order, floats
   use the shortest decimal that round-trips), so an artifact is a pure
   function of its value — byte-identical across domains, machines and
   [--jobs]. The parser accepts anything the printer emits plus standard
   JSON written by other tools. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* shortest decimal representation that parses back to exactly [f] *)
let float_repr f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else begin
    let rec go p =
      if p > 17 then Printf.sprintf "%.17g" f
      else
        let s = Printf.sprintf "%.*g" p f in
        if float_of_string s = f then s else go (p + 1)
    in
    go 1
  end

let escape_string b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let to_string v =
  let b = Buffer.create 4096 in
  let pad depth = Buffer.add_string b (String.make (depth * 2) ' ') in
  let rec go depth = function
    | Null -> Buffer.add_string b "null"
    | Bool x -> Buffer.add_string b (if x then "true" else "false")
    | Int i -> Buffer.add_string b (string_of_int i)
    | Float f ->
      (* JSON has no NaN/inf; they only arise from illegible paper cells
         and read back as null -> nan *)
      if Float.is_finite f then Buffer.add_string b (float_repr f)
      else Buffer.add_string b "null"
    | String s -> escape_string b s
    | List [] -> Buffer.add_string b "[]"
    | List xs ->
      Buffer.add_string b "[";
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_string b ",";
          Buffer.add_char b '\n';
          pad (depth + 1);
          go (depth + 1) x)
        xs;
      Buffer.add_char b '\n';
      pad depth;
      Buffer.add_string b "]"
    | Obj [] -> Buffer.add_string b "{}"
    | Obj fields ->
      Buffer.add_string b "{";
      List.iteri
        (fun i (k, x) ->
          if i > 0 then Buffer.add_string b ",";
          Buffer.add_char b '\n';
          pad (depth + 1);
          escape_string b k;
          Buffer.add_string b ": ";
          go (depth + 1) x)
        fields;
      Buffer.add_char b '\n';
      pad depth;
      Buffer.add_string b "}"
  in
  go 0 v;
  Buffer.add_char b '\n';
  Buffer.contents b

exception Parse_error of string

let parse s =
  let pos = ref 0 in
  let len = String.length s in
  let error msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < len then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some x when x = c -> advance ()
    | _ -> error (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    if !pos + String.length word <= len && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else error ("expected " ^ word)
  in
  let utf8_of_code b u =
    if u < 0x80 then Buffer.add_char b (Char.chr u)
    else if u < 0x800 then begin
      Buffer.add_char b (Char.chr (0xc0 lor (u lsr 6)));
      Buffer.add_char b (Char.chr (0x80 lor (u land 0x3f)))
    end
    else begin
      Buffer.add_char b (Char.chr (0xe0 lor (u lsr 12)));
      Buffer.add_char b (Char.chr (0x80 lor ((u lsr 6) land 0x3f)));
      Buffer.add_char b (Char.chr (0x80 lor (u land 0x3f)))
    end
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= len then error "unterminated string";
      let c = s.[!pos] in
      advance ();
      match c with
      | '"' -> Buffer.contents b
      | '\\' -> begin
        if !pos >= len then error "unterminated escape";
        let e = s.[!pos] in
        advance ();
        (match e with
        | '"' -> Buffer.add_char b '"'
        | '\\' -> Buffer.add_char b '\\'
        | '/' -> Buffer.add_char b '/'
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'n' -> Buffer.add_char b '\n'
        | 'r' -> Buffer.add_char b '\r'
        | 't' -> Buffer.add_char b '\t'
        | 'u' ->
          if !pos + 4 > len then error "truncated \\u escape";
          let hex = String.sub s !pos 4 in
          pos := !pos + 4;
          let u =
            try int_of_string ("0x" ^ hex)
            with _ -> error "bad \\u escape"
          in
          utf8_of_code b u
        | _ -> error "unknown escape");
        go ()
      end
      | c -> Buffer.add_char b c; go ()
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let number_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < len && number_char s.[!pos] do
      advance ()
    done;
    let tok = String.sub s start (!pos - start) in
    match int_of_string_opt tok with
    | Some i -> Int i
    | None -> (
      match float_of_string_opt tok with
      | Some f -> Float f
      | None -> error ("bad number " ^ tok))
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> error "unexpected end of input"
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let rec items acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            items (v :: acc)
          | Some ']' ->
            advance ();
            List.rev (v :: acc)
          | _ -> error "expected ',' or ']'"
        in
        List (items [])
      end
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let field () =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          (k, v)
        in
        let rec fields acc =
          let f = field () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            fields (f :: acc)
          | Some '}' ->
            advance ();
            List.rev (f :: acc)
          | _ -> error "expected ',' or '}'"
        in
        Obj (fields [])
      end
    | Some _ -> parse_number ()
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> len then error "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_error msg -> Error msg

(* ---- accessors ----------------------------------------------------------- *)

let member k = function Obj fields -> List.assoc_opt k fields | _ -> None

let to_float = function
  | Some (Float f) -> Some f
  | Some (Int i) -> Some (float_of_int i)
  | Some Null -> Some nan
  | _ -> None

let to_int = function Some (Int i) -> Some i | _ -> None
let to_str = function Some (String s) -> Some s | _ -> None
let to_bool = function Some (Bool b) -> Some b | _ -> None
let to_list = function Some (List xs) -> Some xs | _ -> None
let to_obj = function Some (Obj fields) -> Some fields | _ -> None
