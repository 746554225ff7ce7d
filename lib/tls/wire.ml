exception Decode_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Decode_error s)) fmt
let parts_length parts = List.fold_left (fun n s -> n + String.length s) 0 parts

(* the big-endian [width]-byte length prefix, then the parts *)
let vec ~width parts =
  let len = parts_length parts in
  if len lsr (8 * width) <> 0 then fail "vec%d overflow" (8 * width);
  String.init width (fun i -> Char.chr ((len lsr (8 * (width - 1 - i))) land 0xff))
  :: parts

let vec8 parts = vec ~width:1 parts
let vec16 parts = vec ~width:2 parts
let vec24 parts = vec ~width:3 parts

module Content_type = struct
  type t = Change_cipher_spec | Alert | Handshake | Application_data

  let to_byte = function
    | Change_cipher_spec -> 20
    | Alert -> 21
    | Handshake -> 22
    | Application_data -> 23

  let of_byte = function
    | 20 -> Change_cipher_spec
    | 21 -> Alert
    | 22 -> Handshake
    | 23 -> Application_data
    | b -> fail "unknown content type %d" b
end

let record_header ct len =
  let b = Bytes.create 5 in
  Bytes.set_uint8 b 0 (Content_type.to_byte ct);
  Bytes.set_uint16_be b 1 0x0303;
  Bytes.set_uint16_be b 3 len;
  Bytes.to_string b

let record ct body = record_header ct (String.length body) ^ body

module Handshake_type = struct
  type t =
    | Client_hello
    | Server_hello
    | New_session_ticket
    | End_of_early_data
    | Encrypted_extensions
    | Certificate
    | Certificate_verify
    | Finished

  let to_byte = function
    | Client_hello -> 1
    | Server_hello -> 2
    | New_session_ticket -> 4
    | End_of_early_data -> 5
    | Encrypted_extensions -> 8
    | Certificate -> 11
    | Certificate_verify -> 15
    | Finished -> 20

  let of_byte = function
    | 1 -> Client_hello
    | 2 -> Server_hello
    | 4 -> New_session_ticket
    | 5 -> End_of_early_data
    | 8 -> Encrypted_extensions
    | 11 -> Certificate
    | 15 -> Certificate_verify
    | 20 -> Finished
    | b -> fail "unknown handshake type %d" b

  let label = function
    | Client_hello -> "CH"
    | Server_hello -> "SH"
    | New_session_ticket -> "NST"
    | End_of_early_data -> "EOED"
    | Encrypted_extensions -> "EE"
    | Certificate -> "CERT"
    | Certificate_verify -> "CV"
    | Finished -> "FIN"
end

let handshake ty body =
  String.concat ""
    (String.make 1 (Char.chr (Handshake_type.to_byte ty)) :: vec24 body)

module Reader = struct
  (* the unread bytes are [data.[pos .. stop)] *)
  type t = { data : string; mutable pos : int; stop : int }

  let of_string data = { data; pos = 0; stop = String.length data }
  let remaining t = t.stop - t.pos

  (* the offset of the next [n] bytes, which the cursor moves past *)
  let take t n =
    if remaining t < n then fail "short read: want %d have %d" n (remaining t);
    let at = t.pos in
    t.pos <- at + n;
    at

  let u8 t = String.get_uint8 t.data (take t 1)
  let u16 t = String.get_uint16_be t.data (take t 2)

  let u24 t =
    let at = take t 3 in
    (String.get_uint8 t.data at lsl 16) lor String.get_uint16_be t.data (at + 1)

  let u32 t = Crypto.Bytesx.get_u32_be t.data (take t 4)
  let bytes t n = String.sub t.data (take t n) n

  let sub t n =
    let at = take t n in
    { data = t.data; pos = at; stop = at + n }

  let sub8 t = sub t (u8 t)
  let sub16 t = sub t (u16 t)
  let sub24 t = sub t (u24 t)
  let vec8 t = bytes t (u8 t)
  let vec16 t = bytes t (u16 t)
  let vec24 t = bytes t (u24 t)
  let expect_end t = if remaining t <> 0 then fail "trailing bytes"
end
