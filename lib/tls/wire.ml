exception Decode_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Decode_error s)) fmt

(* the big-endian [width]-byte length prefix of a [len]-byte vector *)
let prefix ~width len =
  if len lsr (8 * width) <> 0 then fail "vec%d overflow" (8 * width);
  String.init width (fun i -> Char.chr ((len lsr (8 * (width - 1 - i))) land 0xff))

let prefix16 len = prefix ~width:2 len
let prefix24 len = prefix ~width:3 len
let vec8 s = prefix ~width:1 (String.length s) ^ s
let vec16 s = prefix16 (String.length s) ^ s
let vec24 s = prefix24 (String.length s) ^ s
[@@lint.allow "M2" "test: tls wire vectors: the 24-bit length prefix that \
                    Certificate entries carry through prefix24"]
let parts_length parts = List.fold_left (fun n s -> n + String.length s) 0 parts

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

let handshake_parts ty body =
  let b = Bytes.create 4 in
  let len = parts_length body in
  Bytes.set_uint8 b 0 (Handshake_type.to_byte ty);
  Bytes.set_uint8 b 1 (len lsr 16);
  Bytes.set_uint16_be b 2 (len land 0xffff);
  String.concat "" (Bytes.to_string b :: body)

let handshake ty body = handshake_parts ty [ body ]

module Reader = struct
  type t = { data : string; mutable pos : int }

  let of_string data = { data; pos = 0 }
  let remaining t = String.length t.data - t.pos

  let bytes t n =
    if remaining t < n then fail "short read: want %d have %d" n (remaining t);
    let s = String.sub t.data t.pos n in
    t.pos <- t.pos + n;
    s

  let u8 t = Char.code (bytes t 1).[0]

  let u16 t =
    let s = bytes t 2 in
    (Char.code s.[0] lsl 8) lor Char.code s.[1]

  let u24 t =
    let s = bytes t 3 in
    (Char.code s.[0] lsl 16) lor (Char.code s.[1] lsl 8) lor Char.code s.[2]

  let u32 t =
    let s = bytes t 4 in
    (Char.code s.[0] lsl 24)
    lor (Char.code s.[1] lsl 16)
    lor (Char.code s.[2] lsl 8)
    lor Char.code s.[3]

  let vec8 t = bytes t (u8 t)
  let vec16 t = bytes t (u16 t)
  let vec24 t = bytes t (u24 t)
  let expect_end t = if remaining t <> 0 then fail "trailing bytes"
end
