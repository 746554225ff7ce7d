(* FIPS 180-4 SHA-256. 32-bit words live in native ints masked to
   [0, 2^32).

   Performance note: [compress] loads the sixteen block words with one
   unchecked 32-bit read each, and computes every Sigma/sigma rotation
   on a doubled word. For x < 2^32, [d = x lor (x lsl 32)] holds x
   twice within OCaml's 63-bit int (the top copy loses only bit 31,
   which no rotation below 32 reads), so [(d lsr n) land mask] is x
   rotated right by n, and the three rotations of one Sigma share one
   doubling and one mask. [get] pads into a local block and finishes a
   copy of the 8-word chaining value only, so the context, with its
   64-word schedule scratch, is never copied. *)
[@@@lint.kernel
  "h has 8 words and k and the schedule w 64, indexed by constants or \
   loop variables below those sizes; compress's get32u loads read the 4 \
   bytes at off + 4i for i < 16, all inside [off, off + 64), and its \
   callers pass either a 64-byte block at 0 (buf, get's pad block) or \
   an offset feed_sub has checked to lie at least 64 bytes before the \
   end of the string; unsafe_to_string covers those blocks for the \
   duration of one compress"]

external get32u : string -> int -> int32 = "%caml_string_get32u"
external bswap32 : int32 -> int32 = "%bswap_int32"

let k =
  [| 0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1;
     0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
     0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786;
     0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
     0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
     0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
     0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
     0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
     0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a;
     0x5b9cca4f; 0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
     0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2 |]

type ctx = {
  h : int array; (* 8 state words *)
  buf : Bytes.t; (* 64-byte block buffer *)
  mutable buf_len : int;
  mutable total : int; (* total bytes absorbed *)
  out_len : int; (* digest bytes: 32 *)
  w : int array; (* message schedule scratch *)
}

let iv_256 =
  [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f; 0x9b05688c;
     0x1f83d9ab; 0x5be0cd19 |]

let make iv out_len =
  { h = Array.copy iv; buf = Bytes.create 64; buf_len = 0; total = 0; out_len;
    w = Array.make 64 0 }

let init () = make iv_256 32

let mask = 0xffffffff

(* the big-endian word at [off], for [off + 4 <= String.length s] *)
let[@inline] load s off =
  let v = get32u s off in
  Int32.to_int (if Sys.big_endian then v else bswap32 v) land mask

let[@inline] double x = x lor (x lsl 32)

let compress h w block off =
  for i = 0 to 15 do
    Array.unsafe_set w i (load block (off + (4 * i)))
  done;
  for i = 16 to 63 do
    let x = Array.unsafe_get w (i - 15) and y = Array.unsafe_get w (i - 2) in
    let dx = double x and dy = double y in
    let s0 = ((dx lsr 7) lxor (dx lsr 18)) land mask lxor (x lsr 3)
    and s1 = ((dy lsr 17) lxor (dy lsr 19)) land mask lxor (y lsr 10) in
    Array.unsafe_set w i
      ((Array.unsafe_get w (i - 16) + s0 + Array.unsafe_get w (i - 7) + s1)
      land mask)
  done;
  let a = ref (Array.unsafe_get h 0) and b = ref (Array.unsafe_get h 1)
  and c = ref (Array.unsafe_get h 2) and d = ref (Array.unsafe_get h 3)
  and e = ref (Array.unsafe_get h 4) and f = ref (Array.unsafe_get h 5)
  and g = ref (Array.unsafe_get h 6) and hh = ref (Array.unsafe_get h 7) in
  for i = 0 to 63 do
    let de = double !e and da = double !a in
    let s1 = ((de lsr 6) lxor (de lsr 11) lxor (de lsr 25)) land mask in
    let ch = (!e land !f) lxor (lnot !e land !g) in
    let t1 = !hh + s1 + ch + Array.unsafe_get k i + Array.unsafe_get w i in
    let s0 = ((da lsr 2) lxor (da lsr 13) lxor (da lsr 22)) land mask in
    let maj = (!a land !b) lxor (!a land !c) lxor (!b land !c) in
    hh := !g;
    g := !f;
    f := !e;
    e := (!d + t1) land mask;
    d := !c;
    c := !b;
    b := !a;
    a := (t1 + s0 + maj) land mask
  done;
  Array.unsafe_set h 0 ((Array.unsafe_get h 0 + !a) land mask);
  Array.unsafe_set h 1 ((Array.unsafe_get h 1 + !b) land mask);
  Array.unsafe_set h 2 ((Array.unsafe_get h 2 + !c) land mask);
  Array.unsafe_set h 3 ((Array.unsafe_get h 3 + !d) land mask);
  Array.unsafe_set h 4 ((Array.unsafe_get h 4 + !e) land mask);
  Array.unsafe_set h 5 ((Array.unsafe_get h 5 + !f) land mask);
  Array.unsafe_set h 6 ((Array.unsafe_get h 6 + !g) land mask);
  Array.unsafe_set h 7 ((Array.unsafe_get h 7 + !hh) land mask)

let feed_sub ctx s off len =
  if off < 0 || len < 0 || off + len > String.length s then
    invalid_arg "Sha256.feed_sub";
  ctx.total <- ctx.total + len;
  let pos = ref off and remaining = ref len in
  (* Top up a partial block first. *)
  if ctx.buf_len > 0 then begin
    let take = min (64 - ctx.buf_len) !remaining in
    Bytes.blit_string s !pos ctx.buf ctx.buf_len take;
    ctx.buf_len <- ctx.buf_len + take;
    pos := !pos + take;
    remaining := !remaining - take;
    if ctx.buf_len = 64 then begin
      compress ctx.h ctx.w (Bytes.unsafe_to_string ctx.buf) 0;
      ctx.buf_len <- 0
    end
  end;
  while !remaining >= 64 do
    compress ctx.h ctx.w s !pos;
    pos := !pos + 64;
    remaining := !remaining - 64
  done;
  if !remaining > 0 then begin
    Bytes.blit_string s !pos ctx.buf 0 !remaining;
    ctx.buf_len <- !remaining
  end

let feed ctx s = feed_sub ctx s 0 (String.length s)

(* The padded final block or blocks: 0x80 after the pending bytes, zeros,
   and the bit length in the last 8 bytes, compressed into a copy of the
   chaining value. [ctx.w] is scratch, so [ctx]'s state is untouched. *)
let get ctx =
  let h = Array.copy ctx.h in
  let block = Bytes.make 64 '\000' in
  Bytes.blit ctx.buf 0 block 0 ctx.buf_len;
  Bytes.set block ctx.buf_len '\x80';
  if ctx.buf_len >= 56 then begin
    compress h ctx.w (Bytes.unsafe_to_string block) 0;
    Bytes.fill block 0 56 '\000'
  end;
  let bits = 8 * ctx.total in
  Bytesx.set_u32_be block 56 ((bits lsr 32) land mask);
  Bytesx.set_u32_be block 60 (bits land mask);
  compress h ctx.w (Bytes.unsafe_to_string block) 0;
  let out = Bytes.create ctx.out_len in
  for i = 0 to (ctx.out_len / 4) - 1 do
    Bytesx.set_u32_be out (4 * i) h.(i)
  done;
  Bytes.unsafe_to_string out

type state = { s_h : int array; s_pending : string; s_total : int }

let save c =
  { s_h = Array.copy c.h; s_pending = Bytes.sub_string c.buf 0 c.buf_len;
    s_total = c.total }

let restore c s =
  Array.blit s.s_h 0 c.h 0 8;
  Bytes.blit_string s.s_pending 0 c.buf 0 (String.length s.s_pending);
  c.buf_len <- String.length s.s_pending;
  c.total <- s.s_total

let digest s =
  let c = init () in
  feed c s;
  get c
