[@@@lint.kernel
  "pad's buffer is created locally, and unsafe_to_string takes it after \
   its last write"]

let block_size = 64

(* [Sha256.digest (String.concat "" parts)], fed part by part into one
   context instead of concatenated first *)
let digest_parts parts =
  let c = Sha256.init () in
  List.iter (Sha256.feed c) parts;
  Sha256.get c

(* the key, zero-extended to one block, XORed with [byte] *)
let pad key byte =
  let b = Bytes.make block_size (Char.chr byte) in
  for i = 0 to String.length key - 1 do
    Bytes.set b i (Char.chr (Char.code key.[i] lxor byte))
  done;
  Bytes.unsafe_to_string b

let hmac ~key msg =
  let key =
    if String.length key > block_size then Sha256.digest key else key
  in
  digest_parts [ pad key 0x5c; digest_parts [ pad key 0x36; msg ] ]
