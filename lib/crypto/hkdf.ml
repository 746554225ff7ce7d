let digest_size = 32

let extract ~salt ~ikm =
  let salt =
    if (salt = "" [@lint.allow "C1" "emptiness check selecting the RFC 5869 \
                                     default salt; length is public"])
    then String.make digest_size '\000'
    else salt
  in
  Hmac.hmac ~key:salt ikm

let expand ~prk ~info len =
  if len > 255 * digest_size then invalid_arg "Hkdf.expand: too long";
  let buf = Buffer.create len in
  let rec go t i =
    if Buffer.length buf < len then begin
      let t = Hmac.hmac ~key:prk (t ^ info ^ String.make 1 (Char.chr i)) in
      Buffer.add_string buf t;
      go t (i + 1)
    end
  in
  go "" 1;
  String.sub (Buffer.contents buf) 0 len
