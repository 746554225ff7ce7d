[@@@lint.kernel
  "every loop bound is the length of the same string/bytes taken immediately before the loop; equal_ct's get64u reads the 8 bytes at i only while i + 8 <= min of both lengths; unsafe_to_string covers locally created buffers"]

external get64u : string -> int -> int64 = "%caml_string_get64u"

let hex_digit = "0123456789abcdef"

let to_hex s =
  let n = String.length s in
  let b = Bytes.create (2 * n) in
  for i = 0 to n - 1 do
    let c = Char.code s.[i] in
    Bytes.set b (2 * i) hex_digit.[c lsr 4];
    Bytes.set b ((2 * i) + 1) hex_digit.[c land 0xf]
  done;
  Bytes.unsafe_to_string b

let of_hex h =
  let buf = Buffer.create (String.length h / 2) in
  let nib = ref (-1) in
  let value c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> invalid_arg "Bytesx.of_hex: bad character"
  in
  String.iter
    (fun c ->
      match c with
      | ' ' | '\t' | '\n' | '\r' -> ()
      | c ->
        let v = value c in
        if !nib < 0 then nib := v
        else begin
          Buffer.add_char buf (Char.chr ((!nib lsl 4) lor v));
          nib := -1
        end)
    h;
  if !nib >= 0 then invalid_arg "Bytesx.of_hex: odd number of digits";
  Buffer.contents buf

let xor a b =
  let n = String.length a in
  if String.length b <> n then invalid_arg "Bytesx.xor: length mismatch";
  String.init n (fun i -> Char.chr (Char.code a.[i] lxor Char.code b.[i]))

let byte s i = Char.code (String.unsafe_get s i)

(* eight bytes per step: the XOR of two words is folded into [acc] in
   two halves, as an OCaml int holds 63 bits *)
let equal_ct a b =
  let la = String.length a and lb = String.length b in
  let n = min la lb in
  let acc = ref (la lxor lb) in
  let i = ref 0 in
  while !i + 8 <= n do
    let x = Int64.logxor (get64u a !i) (get64u b !i) in
    acc :=
      !acc lor Int64.to_int x lor Int64.to_int (Int64.shift_right_logical x 32);
    i := !i + 8
  done;
  for j = !i to n - 1 do
    acc := !acc lor (byte a j lxor byte b j)
  done;
  !acc = 0

let get_u32_be s off =
  (byte s off lsl 24)
  lor (byte s (off + 1) lsl 16)
  lor (byte s (off + 2) lsl 8)
  lor byte s (off + 3)

let get_u32_le s off =
  byte s off
  lor (byte s (off + 1) lsl 8)
  lor (byte s (off + 2) lsl 16)
  lor (byte s (off + 3) lsl 24)

let get_u64_be s off =
  let hi = get_u32_be s off and lo = get_u32_be s (off + 4) in
  Int64.logor (Int64.shift_left (Int64.of_int hi) 32) (Int64.of_int lo)

let get_u64_le s off =
  let lo = get_u32_le s off and hi = get_u32_le s (off + 4) in
  Int64.logor (Int64.shift_left (Int64.of_int hi) 32) (Int64.of_int lo)

let set_u32_be b off v =
  Bytes.set b off (Char.chr ((v lsr 24) land 0xff));
  Bytes.set b (off + 1) (Char.chr ((v lsr 16) land 0xff));
  Bytes.set b (off + 2) (Char.chr ((v lsr 8) land 0xff));
  Bytes.set b (off + 3) (Char.chr (v land 0xff))

let set_u64_be b off v =
  set_u32_be b off (Int64.to_int (Int64.shift_right_logical v 32) land 0xffffffff);
  set_u32_be b (off + 4) (Int64.to_int v land 0xffffffff)

let u16_be v =
  String.init 2 (fun i -> Char.chr ((v lsr (8 * (1 - i))) land 0xff))

let u32_be v =
  String.init 4 (fun i -> Char.chr ((v lsr (8 * (3 - i))) land 0xff))

let u64_be v =
  let b = Bytes.create 8 in
  set_u64_be b 0 v;
  Bytes.unsafe_to_string b

let concat = String.concat ""
