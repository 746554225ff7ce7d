(* Little-endian base-2^26 limbs; the invariant is "no trailing zero limb",
   so zero is the empty array and [Array.length] orders magnitudes of equal
   top-limb count. 26-bit limbs keep every product and the Knuth-D trial
   quotient inside 63-bit native ints. *)
[@@@lint.kernel
  "limb loops run to Array.length of the operand computed in the same function; normalization keeps every access below that bound"]


let bits_per_limb = 26
let base = 1 lsl bits_per_limb
let limb_mask = base - 1

type t = int array

let zero = [||]
let one = [| 1 |]
let two = [| 2 |]

let normalize a =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do
    decr n
  done;
  if !n = Array.length a then a else Array.sub a 0 !n

let of_int v =
  if v < 0 then invalid_arg "Bignum.of_int: negative";
  let rec go v acc = if v = 0 then acc else go (v lsr bits_per_limb) (v land limb_mask :: acc) in
  normalize (Array.of_list (List.rev (go v [])))

let to_int a =
  let n = Array.length a in
  if n * bits_per_limb > 62 && n > 3 then failwith "Bignum.to_int: too large";
  let acc = ref 0 in
  for i = n - 1 downto 0 do
    if !acc >= 1 lsl (62 - bits_per_limb) then failwith "Bignum.to_int: too large";
    acc := (!acc lsl bits_per_limb) lor a.(i)
  done;
  !acc

let is_zero a = Array.length a = 0
let is_even a = Array.length a = 0 || a.(0) land 1 = 0

let compare a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Stdlib.compare la lb
  else begin
    let rec go i =
      if i < 0 then 0
      else if a.(i) <> b.(i) then Stdlib.compare a.(i) b.(i)
      else go (i - 1)
    in
    go (la - 1)
  end

let equal a b = compare a b = 0

let bit_length a =
  let n = Array.length a in
  if n = 0 then 0
  else begin
    let top = a.(n - 1) in
    let rec msb v acc = if v = 0 then acc else msb (v lsr 1) (acc + 1) in
    ((n - 1) * bits_per_limb) + msb top 0
  end

let testbit a i =
  let limb = i / bits_per_limb and off = i mod bits_per_limb in
  limb < Array.length a && (a.(limb) lsr off) land 1 = 1

let add a b =
  let la = Array.length a and lb = Array.length b in
  let n = 1 + max la lb in
  let r = Array.make n 0 in
  let carry = ref 0 in
  for i = 0 to n - 1 do
    let s =
      (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry
    in
    r.(i) <- s land limb_mask;
    carry := s lsr bits_per_limb
  done;
  assert (!carry = 0);
  normalize r

let sub a b =
  if compare a b < 0 then invalid_arg "Bignum.sub: negative result";
  let la = Array.length a and lb = Array.length b in
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let d = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if d < 0 then begin
      r.(i) <- d + base;
      borrow := 1
    end
    else begin
      r.(i) <- d;
      borrow := 0
    end
  done;
  assert (!borrow = 0);
  normalize r

let mul a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then zero
  else begin
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let carry = ref 0 in
      let ai = a.(i) in
      for j = 0 to lb - 1 do
        let v = r.(i + j) + (ai * b.(j)) + !carry in
        r.(i + j) <- v land limb_mask;
        carry := v lsr bits_per_limb
      done;
      (* propagate the final carry, which may itself exceed one limb *)
      let k = ref (i + lb) in
      while !carry <> 0 do
        let v = r.(!k) + !carry in
        r.(!k) <- v land limb_mask;
        carry := v lsr bits_per_limb;
        incr k
      done
    done;
    normalize r
  end

let shift_left a n =
  if n < 0 then invalid_arg "Bignum.shift_left";
  if is_zero a || n = 0 then a
  else begin
    let limbs = n / bits_per_limb and bits = n mod bits_per_limb in
    let la = Array.length a in
    let r = Array.make (la + limbs + 1) 0 in
    for i = 0 to la - 1 do
      let v = a.(i) lsl bits in
      r.(i + limbs) <- r.(i + limbs) lor (v land limb_mask);
      r.(i + limbs + 1) <- v lsr bits_per_limb
    done;
    normalize r
  end

let shift_right a n =
  if n < 0 then invalid_arg "Bignum.shift_right";
  if is_zero a || n = 0 then a
  else begin
    let limbs = n / bits_per_limb and bits = n mod bits_per_limb in
    let la = Array.length a in
    if limbs >= la then zero
    else begin
      let r = Array.make (la - limbs) 0 in
      for i = 0 to la - limbs - 1 do
        let lo = a.(i + limbs) lsr bits in
        let hi =
          if bits = 0 || i + limbs + 1 >= la then 0
          else (a.(i + limbs + 1) lsl (bits_per_limb - bits)) land limb_mask
        in
        r.(i) <- lo lor hi
      done;
      normalize r
    end
  end

(* Knuth TAOCP vol. 2, Algorithm 4.3.1 D, in base 2^26. *)
let divmod a b =
  if is_zero b then raise Division_by_zero;
  if compare a b < 0 then (zero, a)
  else if Array.length b = 1 then begin
    (* short division *)
    let d = b.(0) in
    let la = Array.length a in
    let q = Array.make la 0 in
    let rem = ref 0 in
    for i = la - 1 downto 0 do
      let cur = (!rem lsl bits_per_limb) lor a.(i) in
      q.(i) <- cur / d;
      rem := cur mod d
    done;
    (normalize q, of_int !rem)
  end
  else begin
    (* normalize so the top divisor limb has its high bit set *)
    let shift =
      let top = b.(Array.length b - 1) in
      let rec go v acc = if v land (base lsr 1) <> 0 then acc else go (v lsl 1) (acc + 1) in
      go top 0
    in
    let u0 = shift_left a shift and v = shift_left b shift in
    let n = Array.length v in
    let m = Array.length u0 - n in
    (* u gets one extra high limb *)
    let u = Array.make (Array.length u0 + 1) 0 in
    Array.blit u0 0 u 0 (Array.length u0);
    let q = Array.make (m + 1) 0 in
    let vn1 = v.(n - 1) and vn2 = if n >= 2 then v.(n - 2) else 0 in
    for j = m downto 0 do
      let num = (u.(j + n) lsl bits_per_limb) lor u.(j + n - 1) in
      let qhat = ref (num / vn1) and rhat = ref (num mod vn1) in
      let adjust = ref true in
      while !adjust do
        if !qhat >= base
           || !qhat * vn2 > (!rhat lsl bits_per_limb) lor u.(j + n - 2)
        then begin
          decr qhat;
          rhat := !rhat + vn1;
          if !rhat >= base then adjust := false
        end
        else adjust := false
      done;
      (* multiply-subtract qhat * v from u[j .. j+n] *)
      let borrow = ref 0 and carry = ref 0 in
      for i = 0 to n - 1 do
        let p = (!qhat * v.(i)) + !carry in
        carry := p lsr bits_per_limb;
        let d = u.(i + j) - (p land limb_mask) - !borrow in
        if d < 0 then begin
          u.(i + j) <- d + base;
          borrow := 1
        end
        else begin
          u.(i + j) <- d;
          borrow := 0
        end
      done;
      let d = u.(j + n) - !carry - !borrow in
      if d < 0 then begin
        (* qhat was one too large: add v back *)
        u.(j + n) <- d + base;
        decr qhat;
        let c = ref 0 in
        for i = 0 to n - 1 do
          let s = u.(i + j) + v.(i) + !c in
          u.(i + j) <- s land limb_mask;
          c := s lsr bits_per_limb
        done;
        u.(j + n) <- (u.(j + n) + !c) land limb_mask
      end
      else u.(j + n) <- d;
      q.(j) <- !qhat
    done;
    let r = normalize (Array.sub u 0 n) in
    (normalize q, shift_right r shift)
  end

let rem a b = snd (divmod a b)

let mod_add a b ~m =
  let s = add a b in
  if compare s m >= 0 then sub s m else s

let mod_sub a b ~m = if compare a b >= 0 then sub a b else sub (add a m) b
let mod_mul a b ~m = rem (mul a b) m

let mod_pow b e ~m =
  if is_zero m then raise Division_by_zero;
  if equal m one then zero
  else begin
    let result = ref one and base_ = ref (rem b m) in
    let nbits = bit_length e in
    for i = 0 to nbits - 1 do
      if testbit e i then result := mod_mul !result !base_ ~m;
      if i < nbits - 1 then base_ := mod_mul !base_ !base_ ~m
    done;
    !result
  end

(* Extended Euclid on naturals, tracking Bezout coefficients with explicit
   signs: invariant r = a*x - a*x' style bookkeeping via (sign, magnitude). *)
let mod_inv a ~m =
  let a = rem a m in
  if is_zero a then raise Not_found;
  (* iterative extended euclid: r0 = m, r1 = a; t0 = 0, t1 = 1 with signs *)
  let rec go r0 r1 (s0, t0) (s1, t1) =
    if is_zero r1 then begin
      if not (equal r0 one) then raise Not_found;
      if s0 then sub m t0 else t0
    end
    else begin
      let q, r2 = divmod r0 r1 in
      (* t2 = t0 - q * t1, with signs *)
      let qt1 = mul q t1 in
      let s2, t2 =
        if s0 = s1 then
          if compare t0 qt1 >= 0 then (s0, sub t0 qt1) else (not s0, sub qt1 t0)
        else (s0, add t0 qt1)
      in
      go r1 r2 (s1, t1) (s2, t2)
    end
  in
  let inv = go m a (false, zero) (false, one) in
  rem inv m

let rec gcd a b = if is_zero b then a else gcd b (rem a b)

let of_bytes_be s =
  let acc = ref zero in
  String.iter
    (fun c -> acc := add (shift_left !acc 8) (of_int (Char.code c)))
    s;
  !acc

let to_bytes_be ?len a =
  let nbytes = (bit_length a + 7) / 8 in
  let nbytes = max nbytes 1 in
  let out = Bytes.make nbytes '\000' in
  let v = ref a in
  for i = nbytes - 1 downto 0 do
    let limb = if is_zero !v then 0 else !v.(0) in
    Bytes.set out i (Char.chr (limb land 0xff));
    v := shift_right !v 8
  done;
  let s = Bytes.unsafe_to_string out in
  match len with
  | None -> s
  | Some l ->
    if nbytes > l then begin
      (* allow when the extra leading bytes are zero *)
      let extra = nbytes - l in
      if String.sub s 0 extra <> String.make extra '\000' then
        invalid_arg "Bignum.to_bytes_be: value too large for len";
      String.sub s extra l
    end
    else String.make (l - nbytes) '\000' ^ s

let of_hex h = of_bytes_be (Bytesx.of_hex (if String.length h mod 2 = 1 then "0" ^ h else h))

let random rng ~bits =
  if bits <= 0 then zero
  else begin
    let nbytes = (bits + 7) / 8 in
    let b = Bytes.of_string (Drbg.generate rng nbytes) in
    let extra = (8 * nbytes) - bits in
    Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) land (0xff lsr extra)));
    of_bytes_be (Bytes.unsafe_to_string b)
  end

let random_below rng n =
  if is_zero n then invalid_arg "Bignum.random_below";
  let bits = bit_length n in
  let rec go () =
    let v = random rng ~bits in
    if compare v n < 0 then v else go ()
  in
  go ()

let small_primes =
  [ 2; 3; 5; 7; 11; 13; 17; 19; 23; 29; 31; 37; 41; 43; 47; 53; 59; 61; 67;
    71; 73; 79; 83; 89; 97; 101; 103; 107; 109; 113; 127; 131; 137; 139;
    149; 151; 157; 163; 167; 173; 179; 181; 191; 193; 197; 199; 211; 223;
    227; 229; 233; 239; 241; 251 ]

let is_probable_prime rng n =
  if compare n two < 0 then false
  else if compare n (of_int 4) < 0 then true (* 2 and 3 *)
  else if is_even n then false
  else begin
    let n_int = if bit_length n <= 16 then Some (to_int n) else None in
    let divisible_by_small =
      List.exists
        (fun p ->
          match n_int with
          | Some v -> v <> p && v mod p = 0
          | None -> is_zero (rem n (of_int p)))
        small_primes
    in
    if divisible_by_small then
      (match n_int with
      | Some v -> List.mem v small_primes
      | None -> false)
    else begin
      (* n - 1 = d * 2^s *)
      let n1 = sub n one in
      let rec split d s = if is_even d then split (shift_right d 1) (s + 1) else (d, s) in
      let d, s = split n1 0 in
      let witness a =
        let x = ref (mod_pow a d ~m:n) in
        if equal !x one || equal !x n1 then false
        else begin
          let composite = ref true in
          (try
             for _ = 1 to s - 1 do
               x := mod_mul !x !x ~m:n;
               if equal !x n1 then begin
                 composite := false;
                 raise Exit
               end
             done
           with Exit -> ());
          !composite
        end
      in
      let rec rounds_left k =
        if k = 0 then true
        else begin
          let a = add two (random_below rng (sub n (of_int 3))) in
          if witness a then false else rounds_left (k - 1)
        end
      in
      rounds_left 20
    end
  end

let gen_prime rng ~bits =
  if bits < 8 then invalid_arg "Bignum.gen_prime: need >= 8 bits";
  let top_bits = add (shift_left one (bits - 1)) (shift_left one (bits - 2)) in
  let rec go () =
    (* two top bits forced so p*q has exactly 2*bits bits; forced odd *)
    let cand = add (random rng ~bits:(bits - 2)) top_bits in
    let cand = if is_even cand then add cand one else cand in
    if is_probable_prime rng cand then cand else go ()
  in
  go ()
