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

let seal_into t ty buf s off len =
  let hdr = header (len + 1 + tag_size) in
  Buffer.add_string buf hdr;
  (match t.cipher with
  | Gcm (key, iv) ->
    Buffer.add_string buf (seal_gcm key iv t.seq hdr ty (String.sub s off len))
  | Null ->
    Buffer.add_substring buf s off len;
    Buffer.add_string buf (inner_type ty);
    Buffer.add_string buf null_tag);
  bump t

let open_sub t s off len =
  let opened =
    match t.cipher with
    | Gcm (key, iv) ->
      Crypto.Aes_gcm.open_ key ~nonce:(nonce iv t.seq) ~ad:(header len)
        (String.sub s off len)
      |> Option.map (fun inner -> (inner, 0, String.length inner))
    | Null ->
      let n = len - tag_size in
      if n >= 0 && Crypto.Bytesx.equal_ct (String.sub s (off + n) tag_size) null_tag
      then Some (s, off, n)
      else None
  in
  match opened with
  | None -> None
  | Some (inner, off, n) ->
    bump t;
    (* strip zero padding, then the content type byte *)
    let n = ref n in
    while !n > 0 && inner.[off + !n - 1] = '\000' do
      decr n
    done;
    if !n = 0 then None
    else
      Some
        ( Wire.Content_type.of_byte (Char.code inner.[off + !n - 1]),
          inner, off, !n - 1 )

let open_ t body =
  open_sub t body 0 (String.length body)
  |> Option.map (fun (ty, s, off, len) -> (ty, String.sub s off len))
