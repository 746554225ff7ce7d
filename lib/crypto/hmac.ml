type hash = {
  name : string;
  digest_size : int;
  block_size : int;
  digest : string -> string;
  digest_parts : string list -> string;
}

let sha256_parts parts =
  let c = Sha256.init () in
  List.iter (Sha256.feed c) parts;
  Sha256.get c

let sha256 =
  { name = "SHA-256"; digest_size = 32; block_size = 64;
    digest = Sha256.digest; digest_parts = sha256_parts }

(* the key, zero-extended to one block, XORed with [byte] *)
let pad h key byte =
  let n = String.length key in
  String.init h.block_size (fun i ->
      Char.chr (if i < n then Char.code key.[i] lxor byte else byte))

let hmac h ~key msg =
  let key =
    if String.length key > h.block_size then h.digest key else key
  in
  h.digest_parts
    [ pad h key 0x5c; h.digest_parts [ pad h key 0x36; msg ] ]
