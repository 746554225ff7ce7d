(* Keccak-f[1600] sponge, FIPS 202.

   Performance note: the state is one 200-byte [Bytes] buffer holding
   the 25 lanes little-endian, lane (x, y) at byte offset 8 * (x + 5*y),
   which is exactly FIPS 202's byte order. [keccak_f] runs the compact
   in-place round of small reference implementations (tiny_sha3's
   keccakf_piln/keccakf_rotc walk), unrolled with constant offsets and
   rotations, on unchecked 64-bit lane loads and stores. Theta's column
   parities come from direct loads; rho and pi are one walk of pi's
   24-lane cycle, which carries one lane in a local, XORs theta's [d]
   into each lane it loads and stores the rotated predecessor in its
   place; chi then runs plane by plane, five loads and five stores, with
   iota on lane 0. Only a handful of int64 locals are live at a time,
   so ocamlopt keeps them unboxed in registers: no allocation, no
   scratch state, no table but [rc]. Because the state bytes are the
   output bytes, absorb XORs whole 8-byte lanes and squeeze is a
   [Bytes.blit]. SHAKE sits on the hot path of every mocked KEM and
   signature (Sim_suites), the DRBG behind the bootstrap and link loss,
   and the real Kyber, Dilithium and SLH-DSA. *)
[@@@lint.kernel
  "every get64u/set64u lane access is at byte 8j for a lane j <= 24, so \
   at most 192 with its 8 bytes ending by 200: keccak_f's offsets are \
   constants, chi's are o + 8k for k <= 4 with o one of the constants \
   0, 40, 80, 120, 160, and bench_permutation's are 8i for i <= 24; \
   absorb's are at sp.pos, a multiple of 8 below rate <= 168; \
   shake256_parts_equal's are at sp.pos + j with sp.pos + j + 8 <= \
   sp.pos + k <= rate, and sp.pos is a multiple of 8 because its sponge \
   is fresh (pos 0) and only a last step leaves a block unfinished. The \
   state is always 200 bytes: keccak_f only ever receives a sponge's \
   st, which make_sponge creates, or bench_permutation's state. rc has \
   24 entries and round runs over 0..23; byte-wise absorb reads msg at \
   i < String.length msg and writes the state at pos < rate <= 168"]

external ( ^^ ) : int64 -> int64 -> int64 = "%int64_xor"
external ( &&& ) : int64 -> int64 -> int64 = "%int64_and"
external ( ||| ) : int64 -> int64 -> int64 = "%int64_or"
external ( <<< ) : int64 -> int -> int64 = "%int64_lsl"
external ( >>> ) : int64 -> int -> int64 = "%int64_lsr"
external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
external bswap64 : int64 -> int64 = "%bswap_int64"

let[@inline] rotl x n = (x <<< n) ||| (x >>> (64 - n))

(* [andn x y] is [lnot x land y], chi's nonlinear term *)
let[@inline] andn x y = (x ^^ -1L) &&& y

(* the little-endian lane at byte [i], for [i + 8 <= 200] *)
let[@inline] get st i =
  let v = get64u st i in
  if Sys.big_endian then bswap64 v else v

let[@inline] set st i v = set64u st i (if Sys.big_endian then bswap64 v else v)

let rc =
  [| 0x0000000000000001L; 0x0000000000008082L; 0x800000000000808aL;
     0x8000000080008000L; 0x000000000000808bL; 0x0000000080000001L;
     0x8000000080008081L; 0x8000000000008009L; 0x000000000000008aL;
     0x0000000000000088L; 0x0000000080008009L; 0x000000008000000aL;
     0x000000008000808bL; 0x800000000000008bL; 0x8000000000008089L;
     0x8000000000008003L; 0x8000000000008002L; 0x8000000000000080L;
     0x000000000000800aL; 0x800000008000000aL; 0x8000000080008081L;
     0x8000000000008080L; 0x0000000080000001L; 0x8000000080008008L |]
[@@lint.allow "S1" "iota round-constant table; never written after \
                    module init"]

let state_bytes = 200

(* chi on the plane at byte offset [o], whose first lane is [a0]; [iota]
   is XORed into that lane's output *)
let[@inline] chi st o a0 iota =
  let a1 = get st (o + 8) and a2 = get st (o + 16) and a3 = get st (o + 24)
  and a4 = get st (o + 32) in
  set st o (a0 ^^ andn a1 a2 ^^ iota);
  set st (o + 8) (a1 ^^ andn a2 a3);
  set st (o + 16) (a2 ^^ andn a3 a4);
  set st (o + 24) (a3 ^^ andn a4 a0);
  set st (o + 32) (a4 ^^ andn a0 a1)

(* One round per iteration, in place. [aXY] is lane (X, Y) after theta.
   Rho + pi moves lane (x, y), rotated by its rho offset, to
   (y, 2x + 3y mod 5); every lane but (0, 0) lies on one 24-lane cycle
   of that map, starting (1, 0) -> (0, 2) -> (2, 1), and the walk below
   follows it: each step loads the lane it is about to overwrite, then
   stores the previous lane, rotated, in its place. Lane (0, 0) is
   pi's fixed point with rho offset 0, so its theta term is applied as
   chi loads it. *)
let keccak_f st =
  for round = 0 to 23 do
    (* theta *)
    let c0 = get st 0 ^^ get st 40 ^^ get st 80 ^^ get st 120 ^^ get st 160 in
    let c1 = get st 8 ^^ get st 48 ^^ get st 88 ^^ get st 128 ^^ get st 168 in
    let c2 = get st 16 ^^ get st 56 ^^ get st 96 ^^ get st 136 ^^ get st 176 in
    let c3 = get st 24 ^^ get st 64 ^^ get st 104 ^^ get st 144 ^^ get st 184 in
    let c4 = get st 32 ^^ get st 72 ^^ get st 112 ^^ get st 152 ^^ get st 192 in
    let d0 = c4 ^^ rotl c1 1 in
    let d1 = c0 ^^ rotl c2 1 in
    let d2 = c1 ^^ rotl c3 1 in
    let d3 = c2 ^^ rotl c4 1 in
    let d4 = c3 ^^ rotl c0 1 in
    (* rho + pi *)
    let a10 = get st 8 ^^ d1 in
    let a02 = get st 80 ^^ d0 in set st 80 (rotl a10 1);
    let a21 = get st 56 ^^ d2 in set st 56 (rotl a02 3);
    let a12 = get st 88 ^^ d1 in set st 88 (rotl a21 6);
    let a23 = get st 136 ^^ d2 in set st 136 (rotl a12 10);
    let a33 = get st 144 ^^ d3 in set st 144 (rotl a23 15);
    let a30 = get st 24 ^^ d3 in set st 24 (rotl a33 21);
    let a01 = get st 40 ^^ d0 in set st 40 (rotl a30 28);
    let a13 = get st 128 ^^ d1 in set st 128 (rotl a01 36);
    let a31 = get st 64 ^^ d3 in set st 64 (rotl a13 45);
    let a14 = get st 168 ^^ d1 in set st 168 (rotl a31 55);
    let a44 = get st 192 ^^ d4 in set st 192 (rotl a14 2);
    let a40 = get st 32 ^^ d4 in set st 32 (rotl a44 14);
    let a03 = get st 120 ^^ d0 in set st 120 (rotl a40 27);
    let a34 = get st 184 ^^ d3 in set st 184 (rotl a03 41);
    let a43 = get st 152 ^^ d4 in set st 152 (rotl a34 56);
    let a32 = get st 104 ^^ d3 in set st 104 (rotl a43 8);
    let a22 = get st 96 ^^ d2 in set st 96 (rotl a32 25);
    let a20 = get st 16 ^^ d2 in set st 16 (rotl a22 43);
    let a04 = get st 160 ^^ d0 in set st 160 (rotl a20 62);
    let a42 = get st 112 ^^ d4 in set st 112 (rotl a04 18);
    let a24 = get st 176 ^^ d2 in set st 176 (rotl a42 39);
    let a41 = get st 72 ^^ d4 in set st 72 (rotl a24 61);
    let a11 = get st 48 ^^ d1 in set st 48 (rotl a41 20);
    set st 8 (rotl a11 44);
    (* chi, with iota on lane (0, 0) *)
    chi st 0 (get st 0 ^^ d0) (Array.unsafe_get rc round);
    chi st 40 (get st 40) 0L;
    chi st 80 (get st 80) 0L;
    chi st 120 (get st 120) 0L;
    chi st 160 (get st 160) 0L
  done

type sponge = {
  st : Bytes.t; (* 200-byte state, lanes little-endian *)
  rate : int; (* rate in bytes, a multiple of 8 *)
  mutable pos : int; (* byte position within the current rate block *)
}

let make_sponge rate = { st = Bytes.make state_bytes '\000'; rate; pos = 0 }

let xor_byte st i v =
  Bytes.unsafe_set st i
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get st i) lxor v))

(* XOR [msg] into the rate, permuting whenever a block fills. Whole
   lanes go in at once while [pos] is 8-aligned; after a message whose
   length is not a multiple of 8, the next one goes in byte by byte
   until [pos] is aligned again. *)
let absorb sp msg =
  let st = sp.st and n = String.length msg in
  let i = ref 0 in
  while !i < n do
    if sp.pos land 7 = 0 && n - !i >= 8 then begin
      set st sp.pos (get st sp.pos ^^ String.get_int64_le msg !i);
      sp.pos <- sp.pos + 8;
      i := !i + 8
    end
    else begin
      xor_byte st sp.pos (Char.code (String.unsafe_get msg !i));
      sp.pos <- sp.pos + 1;
      incr i
    end;
    if sp.pos = sp.rate then begin
      keccak_f st;
      sp.pos <- 0
    end
  done

(* pad10*1 with the domain bits folded into the first pad byte, then
   switch to squeezing *)
let pad sp pad_byte =
  xor_byte sp.st sp.pos pad_byte;
  xor_byte sp.st (sp.rate - 1) 0x80;
  keccak_f sp.st;
  sp.pos <- 0

(* the next [n] output bytes into [buf] at [off], a block at a time *)
let squeeze_into sp buf off n =
  let stop = off + n and off = ref off in
  while !off < stop do
    if sp.pos = sp.rate then begin
      keccak_f sp.st;
      sp.pos <- 0
    end;
    let k = Int.min (stop - !off) (sp.rate - sp.pos) in
    Bytes.blit sp.st sp.pos buf !off k;
    sp.pos <- sp.pos + k;
    off := !off + k
  done

let squeeze sp n =
  let out = Bytes.create n in
  squeeze_into sp out 0 n;
  Bytes.unsafe_to_string out

let hash rate pad_byte msg out_len =
  let sp = make_sponge rate in
  absorb sp msg;
  pad sp pad_byte;
  squeeze sp out_len

let sha3_256 msg = hash 136 0x06 msg 32
let sha3_512 msg = hash 72 0x06 msg 64
let shake128 msg n = hash 168 0x1f msg n
[@@lint.allow "M2" "test: crypto shake128 split squeeze = one-shot and the \
                    SHAKE128 vectors: the one-shot reference for Xof.shake128"]
let shake256 msg n = hash 136 0x1f msg n

let shake256_sponge parts =
  let sp = make_sponge 136 in
  List.iter (absorb sp) parts;
  pad sp 0x1f;
  sp

let shake256_parts parts n = squeeze (shake256_sponge parts) n

let in_range ~off ~len n = off >= 0 && len >= 0 && off <= n - len

let shake256_parts_into parts buf off len =
  if not (in_range ~off ~len (Bytes.length buf)) then
    invalid_arg "Keccak.shake256_parts_into";
  squeeze_into (shake256_sponge parts) buf off len

(* The output is compared with [s] as it is squeezed, a block at a time
   as in [squeeze_into]: whole lanes while 8 bytes remain, then bytes,
   OR-ing every difference into one word, so the time depends on [len]
   alone. *)
let shake256_parts_equal parts s off len =
  in_range ~off ~len (String.length s)
  &&
  let sp = shake256_sponge parts in
  let diff = ref 0 and i = ref 0 in
  while !i < len do
    if sp.pos = sp.rate then begin
      keccak_f sp.st;
      sp.pos <- 0
    end;
    let k = Int.min (len - !i) (sp.rate - sp.pos) in
    let j = ref 0 in
    while !j + 8 <= k do
      let d =
        get sp.st (sp.pos + !j) ^^ String.get_int64_le s (off + !i + !j)
      in
      diff :=
        !diff lor Int64.to_int d lor Int64.to_int (Int64.shift_right_logical d 32);
      j := !j + 8
    done;
    while !j < k do
      diff :=
        !diff
        lor (Char.code (Bytes.get sp.st (sp.pos + !j))
            lxor Char.code s.[off + !i + !j]);
      incr j
    done;
    sp.pos <- sp.pos + k;
    i := !i + k
  done;
  !diff = 0

module Xof = struct
  type t = sponge

  let make rate msg =
    let sp = make_sponge rate in
    absorb sp msg;
    pad sp 0x1f;
    sp

  let shake128 msg = make 168 msg
  let shake256 msg = make 136 msg
  let squeeze = squeeze

  (* the next [k] output bytes read where the state holds them, permuting
     when a block runs out as [squeeze_into] does; the accumulator is a
     local ref, which ocamlopt keeps in a register *)
  let squeeze_uint sp k =
    if k < 1 || k > 7 then invalid_arg "Keccak.Xof.squeeze_uint";
    let v = ref 0 in
    for _ = 1 to k do
      if sp.pos = sp.rate then begin
        keccak_f sp.st;
        sp.pos <- 0
      end;
      v := (!v lsl 8) lor Char.code (Bytes.get sp.st sp.pos);
      sp.pos <- sp.pos + 1
    done;
    !v
end

(* ---- micro-benchmark kernel hook ----------------------------------------- *)

let bench_permutation () =
  let st = Bytes.make state_bytes '\000' in
  (* fixed non-trivial lane contents so every round does real work *)
  for i = 0 to 24 do
    let lo = (i * 0x9e3779b9) land 0xffffffff and hi = (i + 7) * 0x7c15 in
    set st (8 * i) Int64.(logor (shift_left (of_int hi) 32) (of_int lo))
  done;
  fun () -> keccak_f st
