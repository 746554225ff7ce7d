type cipher =
  | Gcm of Crypto.Aes_gcm.key * string (* key, iv *)
  | Null
      (* size-preserving stand-in used by the measurement campaigns: the
         16-byte tag is a MAC-less checksum so records keep exact TLS
         sizes without paying AES-GCM host time (see DESIGN.md) *)

type t = { cipher : cipher; mutable seq : int64 }

let create (tk : Key_schedule.traffic_keys) =
  { cipher = Gcm (Crypto.Aes_gcm.of_secret tk.key, tk.iv); seq = 0L }

let create_null () = { cipher = Null; seq = 0L }

let nonce iv seq =
  let padded = String.make 4 '\000' ^ Crypto.Bytesx.u64_be seq in
  Crypto.Bytesx.xor iv padded

let bump t = t.seq <- Int64.add t.seq 1L
let null_tag = String.make Crypto.Aes_gcm.tag_size '\xa5'

let seal t ty fragment =
  let inner = fragment ^ String.make 1 (Char.chr (Wire.Content_type.to_byte ty)) in
  let len = String.length inner + Crypto.Aes_gcm.tag_size in
  let header = "\x17\x03\x03" ^ Crypto.Bytesx.u16_be len in
  let sealed =
    match t.cipher with
    | Gcm (key, iv) -> Crypto.Aes_gcm.seal key ~nonce:(nonce iv t.seq) ~ad:header inner
    | Null -> inner ^ null_tag
  in
  bump t;
  header ^ sealed

let open_ t body =
  let header = "\x17\x03\x03" ^ Crypto.Bytesx.u16_be (String.length body) in
  let opened =
    match t.cipher with
    | Gcm (key, iv) ->
      Crypto.Aes_gcm.open_ key ~nonce:(nonce iv t.seq) ~ad:header body
    | Null ->
      let n = String.length body - Crypto.Aes_gcm.tag_size in
      if n < 0 || String.sub body n Crypto.Aes_gcm.tag_size <> null_tag then None
      else Some (String.sub body 0 n)
  in
  match opened with
  | None -> None
  | Some inner ->
    bump t;
    (* strip zero padding, then the content type byte *)
    let n = ref (String.length inner) in
    while !n > 0 && inner.[!n - 1] = '\000' do
      decr n
    done;
    if !n = 0 then None
    else
      Some
        ( Wire.Content_type.of_byte (Char.code inner.[!n - 1]),
          String.sub inner 0 (!n - 1) )
