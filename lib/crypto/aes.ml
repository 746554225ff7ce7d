(* FIPS 197. The S-box is computed at start-up from the GF(2^8) inverse
   and affine map rather than pasted as a table; it is checked against
   the two well-known corner values. *)
[@@@lint.kernel
  "state and round-key arrays have fixed sizes from FIPS 197; all indices are constants or loop counters bounded by those sizes"]


let xtime b =
  let b = b lsl 1 in
  if b land 0x100 <> 0 then (b lxor 0x11b) land 0xff else b

let gf_mul a b =
  let acc = ref 0 and a = ref a and b = ref b in
  while !b <> 0 do
    if !b land 1 <> 0 then acc := !acc lxor !a;
    a := xtime !a;
    b := !b lsr 1
  done;
  !acc

let gf_inv a =
  if a = 0 then 0
  else begin
    (* a^254 by square-and-multiply *)
    let rec pow base e acc =
      if e = 0 then acc
      else
        pow (gf_mul base base) (e lsr 1)
          (if e land 1 = 1 then gf_mul acc base else acc)
    in
    pow a 254 1
  end

let sbox =
  let t = Array.make 256 0 in
  for i = 0 to 255 do
    let x = gf_inv i in
    let rot v n = ((v lsl n) lor (v lsr (8 - n))) land 0xff in
    t.(i) <- x lxor rot x 1 lxor rot x 2 lxor rot x 3 lxor rot x 4 lxor 0x63
  done;
  assert (t.(0) = 0x63 && t.(0x53) = 0xed);
  t
[@@lint.allow "S1" "init-once S-box table; computed at module init and \
                    never written again"]

let rcon = [| 0x01; 0x02; 0x04; 0x08; 0x10; 0x20; 0x40; 0x80; 0x1b; 0x36 |]

type key = { rounds : int; rk : int array (* round keys as 32-bit words *) }

let sub_word w =
  (sbox.((w lsr 24) land 0xff) lsl 24)
  lor (sbox.((w lsr 16) land 0xff) lsl 16)
  lor (sbox.((w lsr 8) land 0xff) lsl 8)
  lor sbox.(w land 0xff)

let rot_word w = ((w lsl 8) lor (w lsr 24)) land 0xffffffff

let expand_key k =
  let nk =
    match String.length k with
    | 16 -> 4
    | 24 -> 6
    | 32 -> 8
    | _ -> invalid_arg "Aes.expand_key: key must be 16/24/32 bytes"
  in
  let rounds = nk + 6 in
  let n = 4 * (rounds + 1) in
  let rk = Array.make n 0 in
  for i = 0 to nk - 1 do
    rk.(i) <- Bytesx.get_u32_be k (4 * i)
  done;
  for i = nk to n - 1 do
    let t = rk.(i - 1) in
    let t =
      if i mod nk = 0 then sub_word (rot_word t) lxor (rcon.((i / nk) - 1) lsl 24)
      else if nk > 6 && i mod nk = 4 then sub_word t
      else t
    in
    rk.(i) <- rk.(i - nk) lxor t
  done;
  { rounds; rk }

let encrypt_block { rounds; rk } block =
  if String.length block <> 16 then invalid_arg "Aes.encrypt_block";
  let s = Array.init 16 (fun i -> Char.code block.[i]) in
  let add_round_key r =
    for c = 0 to 3 do
      let w = rk.((4 * r) + c) in
      s.(4 * c) <- s.(4 * c) lxor ((w lsr 24) land 0xff);
      s.((4 * c) + 1) <- s.((4 * c) + 1) lxor ((w lsr 16) land 0xff);
      s.((4 * c) + 2) <- s.((4 * c) + 2) lxor ((w lsr 8) land 0xff);
      s.((4 * c) + 3) <- s.((4 * c) + 3) lxor (w land 0xff)
    done
  in
  let sub_bytes () =
    for i = 0 to 15 do
      s.(i) <- sbox.(s.(i))
    done
  in
  let shift_rows () =
    (* row r (bytes r, r+4, r+8, r+12) rotates left by r *)
    let t = Array.copy s in
    for r = 1 to 3 do
      for c = 0 to 3 do
        s.((4 * c) + r) <- t.((4 * ((c + r) mod 4)) + r)
      done
    done
  in
  let mix_columns () =
    for c = 0 to 3 do
      let a0 = s.(4 * c) and a1 = s.((4 * c) + 1) and a2 = s.((4 * c) + 2)
      and a3 = s.((4 * c) + 3) in
      s.(4 * c) <- xtime a0 lxor gf_mul a1 3 lxor a2 lxor a3;
      s.((4 * c) + 1) <- a0 lxor xtime a1 lxor gf_mul a2 3 lxor a3;
      s.((4 * c) + 2) <- a0 lxor a1 lxor xtime a2 lxor gf_mul a3 3;
      s.((4 * c) + 3) <- gf_mul a0 3 lxor a1 lxor a2 lxor xtime a3
    done
  in
  add_round_key 0;
  for r = 1 to rounds - 1 do
    sub_bytes ();
    shift_rows ();
    mix_columns ();
    add_round_key r
  done;
  sub_bytes ();
  shift_rows ();
  add_round_key rounds;
  String.init 16 (fun i -> Char.chr s.(i))

type ctr = {
  key : key;
  counter : Bytes.t; (* the nonce, then the big-endian block counter *)
  nonce_len : int;
  mutable next : int; (* counter value of the next block to encrypt *)
  mutable block : string; (* the current keystream block *)
  mutable used : int; (* bytes of [block] already handed out *)
}

let ctr_stream key ~nonce =
  let nonce_len = String.length nonce in
  if nonce_len > 16 then invalid_arg "Aes.ctr_stream: nonce too long";
  let counter = Bytes.make 16 '\000' in
  Bytes.blit_string nonce 0 counter 0 nonce_len;
  { key; counter; nonce_len; next = 0; block = ""; used = 16 }

(* encrypt the next counter block. A counter [width] bytes wide numbers
   2^(8 * width) blocks before it wraps; from 8 bytes up, [next] cannot
   get there. *)
let refill t =
  let width = 16 - t.nonce_len in
  if width < 8 && t.next >= 1 lsl (8 * width) then
    invalid_arg "Aes.ctr_squeeze: counter overflow";
  let v = ref t.next in
  for i = 15 downto t.nonce_len do
    Bytes.set t.counter i (Char.chr (!v land 0xff));
    v := !v lsr 8
  done;
  t.block <- encrypt_block t.key (Bytes.unsafe_to_string t.counter);
  t.next <- t.next + 1;
  t.used <- 0

let ctr_squeeze t n =
  let out = Bytes.create n in
  let off = ref 0 in
  while !off < n do
    if t.used = 16 then refill t;
    let k = Int.min (n - !off) (16 - t.used) in
    Bytes.blit_string t.block t.used out !off k;
    t.used <- t.used + k;
    off := !off + k
  done;
  Bytes.unsafe_to_string out

let ctr_keystream key ~nonce n = ctr_squeeze (ctr_stream key ~nonce) n

let ctr_encrypt key ~nonce msg =
  Bytesx.xor msg (ctr_keystream key ~nonce (String.length msg))
