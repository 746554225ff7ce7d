(* RFC 7748 over the Bignum field arithmetic. Speed is irrelevant here
   (handshake timing is virtual), so the clear ladder wins over limb
   tricks. *)
[@@@lint.kernel
  "all buffers are fixed 32-byte keys allocated locally; unsafe_to_string covers bytes that never escape mutably"]

module B = Bignum

let p = B.sub (B.shift_left B.one 255) (B.of_int 19)
let a24 = B.of_int 121665

let base_point =
  let b = Bytes.make 32 '\000' in
  Bytes.set b 0 '\x09';
  Bytes.unsafe_to_string b
[@@lint.allow "S1" "frozen to an immutable string before escaping module \
                    init"]

let of_le s = B.of_bytes_be (String.init (String.length s) (fun i -> s.[String.length s - 1 - i]))

let to_le32 v =
  let be = B.to_bytes_be ~len:32 v in
  String.init 32 (fun i -> be.[31 - i])

let clamp scalar =
  let b = Bytes.of_string scalar in
  Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) land 248));
  Bytes.set b 31 (Char.chr (Char.code (Bytes.get b 31) land 127 lor 64));
  Bytes.unsafe_to_string b

let scalar_mult ~scalar ~point =
  if String.length scalar <> 32 || String.length point <> 32 then
    invalid_arg "X25519.scalar_mult: 32-byte inputs";
  let k = of_le (clamp scalar) in
  (* mask the unused high bit of the u-coordinate *)
  let u =
    let b = Bytes.of_string point in
    Bytes.set b 31 (Char.chr (Char.code (Bytes.get b 31) land 127));
    B.rem (of_le (Bytes.unsafe_to_string b)) p
  in
  let add a b = B.mod_add a b ~m:p
  and sub a b = B.mod_sub a b ~m:p
  and mul a b = B.mod_mul a b ~m:p in
  let x1 = u in
  let x2 = ref B.one and z2 = ref B.zero in
  let x3 = ref u and z3 = ref B.one in
  let swap = ref false in
  let cswap cond =
    if cond then begin
      let t = !x2 in
      x2 := !x3;
      x3 := t;
      let t = !z2 in
      z2 := !z3;
      z3 := t
    end
  in
  for t = 254 downto 0 do
    let kt = B.testbit k t in
    cswap (!swap <> kt);
    swap := kt;
    let a = add !x2 !z2 in
    let aa = mul a a in
    let b = sub !x2 !z2 in
    let bb = mul b b in
    let e = sub aa bb in
    let c = add !x3 !z3 in
    let d = sub !x3 !z3 in
    let da = mul d a in
    let cb = mul c b in
    let t1 = add da cb in
    x3 := mul t1 t1;
    let t2 = sub da cb in
    z3 := mul x1 (mul t2 t2);
    x2 := mul aa bb;
    z2 := mul e (add aa (mul a24 e))
  done;
  cswap !swap;
  let out = mul !x2 (B.mod_pow !z2 (B.sub p B.two) ~m:p) in
  to_le32 out

let public_of_secret scalar = scalar_mult ~scalar ~point:base_point
