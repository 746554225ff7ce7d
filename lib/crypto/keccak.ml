(* Keccak-f[1600] sponge, FIPS 202.

   Performance note: the state is one 200-byte [Bytes] buffer holding
   the 25 lanes little-endian, lane (x, y) at byte offset 8 * (x + 5*y),
   which is exactly FIPS 202's byte order. [keccak_f] reads the lanes
   with [Bytes.get_int64_le] into let-bound locals, which ocamlopt
   keeps unboxed (in registers or stack slots), runs one fully unrolled
   round body with constant rotation offsets and no index tables or
   per-lane branches, and stores the lanes back after each round: no
   allocation. Because
   the state bytes are the output bytes, absorb XORs whole 8-byte lanes
   and squeeze is a [Bytes.blit]. SHAKE sits on the hot path of every
   mocked KEM and signature (Sim_suites), the DRBG behind the bootstrap
   and link loss, and the real Kyber, Dilithium and SLH-DSA. *)
[@@@lint.kernel
  "the state is 200 bytes and every lane offset in keccak_f is a constant \
   below 200; rc has 24 entries and round runs over 0..23; byte-wise \
   absorb reads msg at i < String.length msg and writes the state at \
   pos < rate <= 168"]

external ( ^^ ) : int64 -> int64 -> int64 = "%int64_xor"
external ( &&& ) : int64 -> int64 -> int64 = "%int64_and"
external ( ||| ) : int64 -> int64 -> int64 = "%int64_or"
external ( <<< ) : int64 -> int -> int64 = "%int64_lsl"
external ( >>> ) : int64 -> int -> int64 = "%int64_lsr"

let[@inline] rotl x n = (x <<< n) ||| (x >>> (64 - n))

(* [andn x y] is [lnot x land y], chi's nonlinear term *)
let[@inline] andn x y = (x ^^ -1L) &&& y

let get = Bytes.get_int64_le
let set = Bytes.set_int64_le

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

(* One round per iteration: the lanes live in locals only within the
   round, so each is loaded once and stored once. [aXY] is lane (X, Y);
   rho + pi moves lane (x, y), rotated by its rho offset, to
   (y, 2x + 3y mod 5), named [bXY] at its destination. *)
let keccak_f st =
  for round = 0 to 23 do
    let a00 = get st 0 and a10 = get st 8 and a20 = get st 16
    and a30 = get st 24 and a40 = get st 32 in
    let a01 = get st 40 and a11 = get st 48 and a21 = get st 56
    and a31 = get st 64 and a41 = get st 72 in
    let a02 = get st 80 and a12 = get st 88 and a22 = get st 96
    and a32 = get st 104 and a42 = get st 112 in
    let a03 = get st 120 and a13 = get st 128 and a23 = get st 136
    and a33 = get st 144 and a43 = get st 152 in
    let a04 = get st 160 and a14 = get st 168 and a24 = get st 176
    and a34 = get st 184 and a44 = get st 192 in
    (* theta *)
    let c0 = a00 ^^ a01 ^^ a02 ^^ a03 ^^ a04 in
    let c1 = a10 ^^ a11 ^^ a12 ^^ a13 ^^ a14 in
    let c2 = a20 ^^ a21 ^^ a22 ^^ a23 ^^ a24 in
    let c3 = a30 ^^ a31 ^^ a32 ^^ a33 ^^ a34 in
    let c4 = a40 ^^ a41 ^^ a42 ^^ a43 ^^ a44 in
    let d0 = c4 ^^ rotl c1 1 in
    let d1 = c0 ^^ rotl c2 1 in
    let d2 = c1 ^^ rotl c3 1 in
    let d3 = c2 ^^ rotl c4 1 in
    let d4 = c3 ^^ rotl c0 1 in
    (* rho + pi *)
    let b00 = a00 ^^ d0 in
    let b02 = rotl (a10 ^^ d1) 1 in
    let b04 = rotl (a20 ^^ d2) 62 in
    let b01 = rotl (a30 ^^ d3) 28 in
    let b03 = rotl (a40 ^^ d4) 27 in
    let b13 = rotl (a01 ^^ d0) 36 in
    let b10 = rotl (a11 ^^ d1) 44 in
    let b12 = rotl (a21 ^^ d2) 6 in
    let b14 = rotl (a31 ^^ d3) 55 in
    let b11 = rotl (a41 ^^ d4) 20 in
    let b21 = rotl (a02 ^^ d0) 3 in
    let b23 = rotl (a12 ^^ d1) 10 in
    let b20 = rotl (a22 ^^ d2) 43 in
    let b22 = rotl (a32 ^^ d3) 25 in
    let b24 = rotl (a42 ^^ d4) 39 in
    let b34 = rotl (a03 ^^ d0) 41 in
    let b31 = rotl (a13 ^^ d1) 45 in
    let b33 = rotl (a23 ^^ d2) 15 in
    let b30 = rotl (a33 ^^ d3) 21 in
    let b32 = rotl (a43 ^^ d4) 8 in
    let b42 = rotl (a04 ^^ d0) 18 in
    let b44 = rotl (a14 ^^ d1) 2 in
    let b41 = rotl (a24 ^^ d2) 61 in
    let b43 = rotl (a34 ^^ d3) 56 in
    let b40 = rotl (a44 ^^ d4) 14 in
    (* chi, with iota folded into lane (0, 0) *)
    set st 0 (b00 ^^ andn b10 b20 ^^ Array.unsafe_get rc round);
    set st 8 (b10 ^^ andn b20 b30);
    set st 16 (b20 ^^ andn b30 b40);
    set st 24 (b30 ^^ andn b40 b00);
    set st 32 (b40 ^^ andn b00 b10);
    set st 40 (b01 ^^ andn b11 b21);
    set st 48 (b11 ^^ andn b21 b31);
    set st 56 (b21 ^^ andn b31 b41);
    set st 64 (b31 ^^ andn b41 b01);
    set st 72 (b41 ^^ andn b01 b11);
    set st 80 (b02 ^^ andn b12 b22);
    set st 88 (b12 ^^ andn b22 b32);
    set st 96 (b22 ^^ andn b32 b42);
    set st 104 (b32 ^^ andn b42 b02);
    set st 112 (b42 ^^ andn b02 b12);
    set st 120 (b03 ^^ andn b13 b23);
    set st 128 (b13 ^^ andn b23 b33);
    set st 136 (b23 ^^ andn b33 b43);
    set st 144 (b33 ^^ andn b43 b03);
    set st 152 (b43 ^^ andn b03 b13);
    set st 160 (b04 ^^ andn b14 b24);
    set st 168 (b14 ^^ andn b24 b34);
    set st 176 (b24 ^^ andn b34 b44);
    set st 184 (b34 ^^ andn b44 b04);
    set st 192 (b44 ^^ andn b04 b14)
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

let absorb sp msg pad_byte =
  let st = sp.st and n = String.length msg in
  let i = ref 0 in
  while !i < n do
    (* fast path: absorb a whole aligned 64-bit lane at once *)
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
  done;
  (* pad10*1 with the domain bits folded into the first pad byte *)
  xor_byte st sp.pos pad_byte;
  xor_byte st (sp.rate - 1) 0x80;
  keccak_f st;
  sp.pos <- 0

let squeeze sp n =
  let out = Bytes.create n in
  let off = ref 0 in
  while !off < n do
    if sp.pos = sp.rate then begin
      keccak_f sp.st;
      sp.pos <- 0
    end;
    let k = Int.min (n - !off) (sp.rate - sp.pos) in
    Bytes.blit sp.st sp.pos out !off k;
    sp.pos <- sp.pos + k;
    off := !off + k
  done;
  Bytes.unsafe_to_string out

let hash rate pad_byte msg out_len =
  let sp = make_sponge rate in
  absorb sp msg pad_byte;
  squeeze sp out_len

let sha3_256 msg = hash 136 0x06 msg 32
let sha3_512 msg = hash 72 0x06 msg 64
let shake128 msg n = hash 168 0x1f msg n
let shake256 msg n = hash 136 0x1f msg n

module Xof = struct
  type t = sponge

  let make rate msg =
    let sp = make_sponge rate in
    absorb sp msg 0x1f;
    sp

  let shake128 msg = make 168 msg
  let shake256 msg = make 136 msg
  let squeeze = squeeze
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
