(* FIPS 180-4 SHA-256.

   Performance note: [compress] keeps the eight working variables and
   a 16-word window of the message schedule in [int64] refs that never
   escape, which ocamlopt turns into unboxed registers and stack slots:
   a block allocates nothing and does no tagging arithmetic. Each word
   is held in [0, 2^32). The 64 rounds run as four blocks of 16, written
   out once: a round renames the variables instead of shifting them,
   so after 16 rounds every name is back in its place. Before blocks
   1-3, word i of the window becomes schedule word 16j + i, computed in
   place from the window (words i, i+1, i+9 and i+14 mod 16, the last
   two already updated when they wrap), as W(t) needs W(t-16), W(t-15),
   W(t-7) and W(t-2). Every Sigma/sigma rotation works on a doubled
   word: for x < 2^32, [d = x lor (x lsl 32)] holds x twice, so
   [(d lsr n) land mask] is x rotated right by n, and the three
   rotations of one Sigma share one doubling and one mask. [get] pads
   into a local block and finishes a copy of the 8-word chaining value,
   so the context is never copied. *)
[@@@lint.kernel
  "h has 8 words, read and written at constant indices below 8; k has \
   64, read at 16j + i with j < 4 and i < 16; compress's 16 get32u \
   loads read the 4 bytes at off + 4i for i < 16, all inside [off, off \
   + 64), and its callers pass either a 64-byte block at 0 (buf, get's \
   pad block) or an offset feed_sub has checked to lie at least 64 \
   bytes before the end of the string; unsafe_to_string covers those \
   blocks for the duration of one compress"]

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
}

let iv_256 =
  [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f; 0x9b05688c;
     0x1f83d9ab; 0x5be0cd19 |]

let init () =
  { h = Array.copy iv_256; buf = Bytes.create 64; buf_len = 0; total = 0 }

let mask = 0xffffffff
let mask64 = 0xffffffffL

(* the big-endian word at [off], for [off + 4 <= String.length s] *)
let[@inline] load s off =
  let v = get32u s off in
  Int64.logand
    (Int64.of_int32 (if Sys.big_endian then v else bswap32 v))
    mask64

(* operators on int64: [+:] binds like [+], [^:] like [^], and [&:] and
   [>>:] like comparisons, so mixed uses are bracketed *)
let[@inline] ( +: ) x y = Int64.add x y
let[@inline] ( &: ) x y = Int64.logand x y
let[@inline] ( ^: ) x y = Int64.logxor x y
let[@inline] ( >>: ) x n = Int64.shift_right_logical x n

(* Sigma: x rotated right by [r1], [r2] and [r3], XORed *)
let[@inline] big_sigma x r1 r2 r3 =
  let d = Int64.logor x (Int64.shift_left x 32) in
  ((d >>: r1) ^: (d >>: r2) ^: (d >>: r3)) &: mask64

(* sigma: x rotated right by [r1] and [r2] and shifted right by [s], XORed *)
let[@inline] small_sigma x r1 r2 s =
  let d = Int64.logor x (Int64.shift_left x 32) in
  (((d >>: r1) ^: (d >>: r2)) &: mask64) ^: (x >>: s)

(* schedule word W(t) from W(t-16), W(t-15), W(t-7) and W(t-2) *)
let[@inline] next w16 w15 w7 w2 =
  (w16 +: small_sigma w15 7 18 3 +: w7 +: small_sigma w2 17 19 10) &: mask64

(* K(16j + i) + W(16j + i), for round i of block j *)
let[@inline] kw j i w = Int64.of_int (Array.unsafe_get k ((16 * j) + i)) +: w

(* T1 of a round, before the mask: h + Sigma1(e) + Ch(e, f, g) + K + W *)
let[@inline] t1 e f g h kw =
  h +: big_sigma e 6 11 25 +: (g ^: (e &: (f ^: g))) +: kw

(* T2 of a round: Sigma0(a) + Maj(a, b, c) *)
let[@inline] t2 a b c =
  big_sigma a 2 13 22 +: Int64.logor (a &: b) (c &: Int64.logor a b)

let compress h block off =
  let w0 = ref (load block off) and w1 = ref (load block (off + 4))
  and w2 = ref (load block (off + 8)) and w3 = ref (load block (off + 12))
  and w4 = ref (load block (off + 16)) and w5 = ref (load block (off + 20))
  and w6 = ref (load block (off + 24)) and w7 = ref (load block (off + 28))
  and w8 = ref (load block (off + 32)) and w9 = ref (load block (off + 36))
  and w10 = ref (load block (off + 40)) and w11 = ref (load block (off + 44))
  and w12 = ref (load block (off + 48)) and w13 = ref (load block (off + 52))
  and w14 = ref (load block (off + 56)) and w15 = ref (load block (off + 60)) in
  let a = ref (Int64.of_int (Array.unsafe_get h 0))
  and b = ref (Int64.of_int (Array.unsafe_get h 1))
  and c = ref (Int64.of_int (Array.unsafe_get h 2))
  and d = ref (Int64.of_int (Array.unsafe_get h 3))
  and e = ref (Int64.of_int (Array.unsafe_get h 4))
  and f = ref (Int64.of_int (Array.unsafe_get h 5))
  and g = ref (Int64.of_int (Array.unsafe_get h 6))
  and hh = ref (Int64.of_int (Array.unsafe_get h 7)) in
  for j = 0 to 3 do
    if j > 0 then begin
      w0 := next !w0 !w1 !w9 !w14;
      w1 := next !w1 !w2 !w10 !w15;
      w2 := next !w2 !w3 !w11 !w0;
      w3 := next !w3 !w4 !w12 !w1;
      w4 := next !w4 !w5 !w13 !w2;
      w5 := next !w5 !w6 !w14 !w3;
      w6 := next !w6 !w7 !w15 !w4;
      w7 := next !w7 !w8 !w0 !w5;
      w8 := next !w8 !w9 !w1 !w6;
      w9 := next !w9 !w10 !w2 !w7;
      w10 := next !w10 !w11 !w3 !w8;
      w11 := next !w11 !w12 !w4 !w9;
      w12 := next !w12 !w13 !w5 !w10;
      w13 := next !w13 !w14 !w6 !w11;
      w14 := next !w14 !w15 !w7 !w12;
      w15 := next !w15 !w0 !w8 !w13
    end;
    (* round i: d += T1 and h = T1 + T2, under the names that round
       gives the eight variables *)
    let t = t1 !e !f !g !hh (kw j 0 !w0) in
    d := (!d +: t) &: mask64;
    hh := (t +: t2 !a !b !c) &: mask64;
    let t = t1 !d !e !f !g (kw j 1 !w1) in
    c := (!c +: t) &: mask64;
    g := (t +: t2 !hh !a !b) &: mask64;
    let t = t1 !c !d !e !f (kw j 2 !w2) in
    b := (!b +: t) &: mask64;
    f := (t +: t2 !g !hh !a) &: mask64;
    let t = t1 !b !c !d !e (kw j 3 !w3) in
    a := (!a +: t) &: mask64;
    e := (t +: t2 !f !g !hh) &: mask64;
    let t = t1 !a !b !c !d (kw j 4 !w4) in
    hh := (!hh +: t) &: mask64;
    d := (t +: t2 !e !f !g) &: mask64;
    let t = t1 !hh !a !b !c (kw j 5 !w5) in
    g := (!g +: t) &: mask64;
    c := (t +: t2 !d !e !f) &: mask64;
    let t = t1 !g !hh !a !b (kw j 6 !w6) in
    f := (!f +: t) &: mask64;
    b := (t +: t2 !c !d !e) &: mask64;
    let t = t1 !f !g !hh !a (kw j 7 !w7) in
    e := (!e +: t) &: mask64;
    a := (t +: t2 !b !c !d) &: mask64;
    let t = t1 !e !f !g !hh (kw j 8 !w8) in
    d := (!d +: t) &: mask64;
    hh := (t +: t2 !a !b !c) &: mask64;
    let t = t1 !d !e !f !g (kw j 9 !w9) in
    c := (!c +: t) &: mask64;
    g := (t +: t2 !hh !a !b) &: mask64;
    let t = t1 !c !d !e !f (kw j 10 !w10) in
    b := (!b +: t) &: mask64;
    f := (t +: t2 !g !hh !a) &: mask64;
    let t = t1 !b !c !d !e (kw j 11 !w11) in
    a := (!a +: t) &: mask64;
    e := (t +: t2 !f !g !hh) &: mask64;
    let t = t1 !a !b !c !d (kw j 12 !w12) in
    hh := (!hh +: t) &: mask64;
    d := (t +: t2 !e !f !g) &: mask64;
    let t = t1 !hh !a !b !c (kw j 13 !w13) in
    g := (!g +: t) &: mask64;
    c := (t +: t2 !d !e !f) &: mask64;
    let t = t1 !g !hh !a !b (kw j 14 !w14) in
    f := (!f +: t) &: mask64;
    b := (t +: t2 !c !d !e) &: mask64;
    let t = t1 !f !g !hh !a (kw j 15 !w15) in
    e := (!e +: t) &: mask64;
    a := (t +: t2 !b !c !d) &: mask64
  done;
  Array.unsafe_set h 0 ((Array.unsafe_get h 0 + Int64.to_int !a) land mask);
  Array.unsafe_set h 1 ((Array.unsafe_get h 1 + Int64.to_int !b) land mask);
  Array.unsafe_set h 2 ((Array.unsafe_get h 2 + Int64.to_int !c) land mask);
  Array.unsafe_set h 3 ((Array.unsafe_get h 3 + Int64.to_int !d) land mask);
  Array.unsafe_set h 4 ((Array.unsafe_get h 4 + Int64.to_int !e) land mask);
  Array.unsafe_set h 5 ((Array.unsafe_get h 5 + Int64.to_int !f) land mask);
  Array.unsafe_set h 6 ((Array.unsafe_get h 6 + Int64.to_int !g) land mask);
  Array.unsafe_set h 7 ((Array.unsafe_get h 7 + Int64.to_int !hh) land mask)

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
      compress ctx.h (Bytes.unsafe_to_string ctx.buf) 0;
      ctx.buf_len <- 0
    end
  end;
  while !remaining >= 64 do
    compress ctx.h s !pos;
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
   chaining value, so [ctx]'s state is untouched. *)
let get ctx =
  let h = Array.copy ctx.h in
  let block = Bytes.make 64 '\000' in
  Bytes.blit ctx.buf 0 block 0 ctx.buf_len;
  Bytes.set block ctx.buf_len '\x80';
  if ctx.buf_len >= 56 then begin
    compress h (Bytes.unsafe_to_string block) 0;
    Bytes.fill block 0 56 '\000'
  end;
  let bits = 8 * ctx.total in
  Bytesx.set_u32_be block 56 ((bits lsr 32) land mask);
  Bytesx.set_u32_be block 60 (bits land mask);
  compress h (Bytes.unsafe_to_string block) 0;
  let out = Bytes.create 32 in
  for i = 0 to 7 do
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
