type t = { seed : string; xof : Keccak.Xof.t }

let create ~seed = { seed; xof = Keccak.Xof.shake256 ("drbg:" ^ seed) }
let generate t n = Keccak.Xof.squeeze t.xof n

(* sample 30-bit words, reject at or above [limit], the largest multiple
   of n below 2^30; toplevel so a draw allocates no closure *)
let rec draw t n limit =
  let b = generate t 4 in
  let v =
    (Char.code b.[0] lsl 22) lor (Char.code b.[1] lsl 14)
    lor (Char.code b.[2] lsl 6) lor (Char.code b.[3] lsr 2)
  in
  if v < limit then v mod n else draw t n limit

let uniform t n =
  if n <= 0 then invalid_arg "Drbg.uniform";
  if n = 1 then 0
  else begin
    let bound = 1 lsl 30 in
    draw t n (bound - (bound mod n))
  end

let float t =
  let b = generate t 7 in
  let acc = ref 0 in
  for i = 0 to 6 do
    acc := (!acc lsl 8) lor Char.code b.[i]
  done;
  (* 53 random bits *)
  float_of_int (!acc lsr 3) /. 9007199254740992.0

let fork t label = create ~seed:(t.seed ^ "/" ^ label)
