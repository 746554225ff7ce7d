type t = { seed : string; xof : Keccak.Xof.t }

let create ~seed = { seed; xof = Keccak.Xof.shake256 ("drbg:" ^ seed) }
let generate t n = Keccak.Xof.squeeze t.xof n

(* sample 30-bit words, the top 30 bits of the next 4 bytes read
   big-endian, and reject at or above [limit], the largest multiple of n
   below 2^30. The bytes are read in the sponge, and the function is
   toplevel, so a draw allocates nothing. *)
let rec draw t n limit =
  let v = Keccak.Xof.squeeze_uint t.xof 4 lsr 2 in
  if v < limit then v mod n else draw t n limit

let uniform t n =
  if n <= 0 then invalid_arg "Drbg.uniform";
  if n = 1 then 0
  else begin
    let bound = 1 lsl 30 in
    draw t n (bound - (bound mod n))
  end

(* the top 53 bits of the next 7 bytes read big-endian *)
let float t =
  float_of_int (Keccak.Xof.squeeze_uint t.xof 7 lsr 3) /. 9007199254740992.0

let fork t label = create ~seed:(t.seed ^ "/" ^ label)
