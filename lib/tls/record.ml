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
let tag_size = Crypto.Aes_gcm.tag_size
let null_tag = String.make tag_size '\xa5'
let overhead = 5 + 1 + tag_size

(* the outer header of a record with a [body]-byte protected body, which
   is also the AEAD's additional data *)
let header body = Wire.record_header Wire.Content_type.Application_data body

let inner_type ty = String.make 1 (Char.chr (Wire.Content_type.to_byte ty))

let seal_gcm key iv seq hdr ty fragment =
  Crypto.Aes_gcm.seal key ~nonce:(nonce iv seq) ~ad:hdr (fragment ^ inner_type ty)

let seal t ty fragment =
  let hdr = header (String.length fragment + 1 + tag_size) in
  let record =
    match t.cipher with
    | Gcm (key, iv) -> hdr ^ seal_gcm key iv t.seq hdr ty fragment
    | Null -> String.concat "" [ hdr; fragment; inner_type ty; null_tag ]
  in
  bump t;
  record

let seal_into t ty buf pos s off len =
  let hdr = header (len + 1 + tag_size) in
  Bytes.blit_string hdr 0 buf pos 5;
  (match t.cipher with
  | Gcm (key, iv) ->
    let sealed = seal_gcm key iv t.seq hdr ty (String.sub s off len) in
    Bytes.blit_string sealed 0 buf (pos + 5) (String.length sealed)
  | Null ->
    Bytes.blit_string s off buf (pos + 5) len;
    Bytes.set buf (pos + 5 + len) (Char.chr (Wire.Content_type.to_byte ty));
    Bytes.blit_string null_tag 0 buf (pos + 6 + len) tag_size);
  bump t

let open_in_place t buf off len =
  let opened =
    match t.cipher with
    | Gcm (key, iv) ->
      Crypto.Aes_gcm.open_ key ~nonce:(nonce iv t.seq) ~ad:(header len)
        (Bytes.sub_string buf off len)
      |> Option.map (fun inner ->
             Bytes.blit_string inner 0 buf off (String.length inner);
             String.length inner)
    | Null ->
      let n = len - tag_size in
      if n >= 0
         && Crypto.Bytesx.equal_ct (Bytes.sub_string buf (off + n) tag_size)
              null_tag
      then Some n
      else None
  in
  match opened with
  | None -> None
  | Some n ->
    bump t;
    (* strip zero padding, then the content type byte *)
    let n = ref n in
    while !n > 0 && Bytes.get buf (off + !n - 1) = '\000' do
      decr n
    done;
    if !n = 0 then None
    else
      Some
        ( Wire.Content_type.of_byte (Char.code (Bytes.get buf (off + !n - 1))),
          !n - 1 )

let open_ t body =
  let buf = Bytes.of_string body in
  open_in_place t buf 0 (Bytes.length buf)
  |> Option.map (fun (ty, n) -> (ty, Bytes.sub_string buf 0 n))
