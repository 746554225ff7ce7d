(* CRYSTALS-Dilithium round 3.1. Coefficients are kept canonical in
   [0, q); centering happens locally where the spec needs signed values.
   Products of two canonical coefficients stay below 2^47, so plain
   native-int arithmetic is exact. Structure follows the reference code;
   see kyber.ml for why no Montgomery arithmetic is used. *)
[@@@lint.kernel
  "polynomial arrays are fixed size n = 256 and pack loops are bounded by lengths derived from the parameter set"]


let n = 256
let q = 8380417
let d = 13
let seed_bytes = 32
let crh_bytes = 64

let modq x = ((x mod q) + q) mod q
let center c = if c > q / 2 then c - q else c

(* zetas.(i) = 1753^bitrev8(i) mod q *)
let zetas =
  let bitrev8 i =
    let r = ref 0 in
    for b = 0 to 7 do
      if i land (1 lsl b) <> 0 then r := !r lor (1 lsl (7 - b))
    done;
    !r
  in
  let pow b e =
    let r = ref 1 and b = ref b and e = ref e in
    while !e > 0 do
      if !e land 1 = 1 then r := !r * !b mod q;
      b := !b * !b mod q;
      e := !e lsr 1
    done;
    !r
  in
  Array.init 256 (fun i -> pow 1753 (bitrev8 i))
[@@lint.allow "S1" "init-once NTT twiddle table; never written after \
                    module init"]

let inv256 =
  (* 256^-1 mod q *)
  let rec pow b e acc =
    if e = 0 then acc
    else pow (b * b mod q) (e / 2) (if e land 1 = 1 then acc * b mod q else acc)
  in
  pow 256 (q - 2) 1

type poly = int array

let poly_zero () : poly = Array.make n 0
let poly_add a b = Array.init n (fun i -> modq (a.(i) + b.(i)))
let poly_sub a b = Array.init n (fun i -> modq (a.(i) - b.(i)))

let ntt a =
  let a = Array.copy a in
  let k = ref 0 in
  let len = ref 128 in
  while !len > 0 do
    let start = ref 0 in
    while !start < 256 do
      incr k;
      let zeta = zetas.(!k) in
      for j = !start to !start + !len - 1 do
        let t = zeta * a.(j + !len) mod q in
        a.(j + !len) <- modq (a.(j) - t);
        a.(j) <- modq (a.(j) + t)
      done;
      start := !start + (2 * !len)
    done;
    len := !len / 2
  done;
  a

let inv_ntt a =
  let a = Array.copy a in
  let k = ref 256 in
  let len = ref 1 in
  while !len < 256 do
    let start = ref 0 in
    while !start < 256 do
      decr k;
      let zeta = q - zetas.(!k) in
      for j = !start to !start + !len - 1 do
        let t = a.(j) in
        a.(j) <- modq (t + a.(j + !len));
        a.(j + !len) <- zeta * modq (t - a.(j + !len)) mod q
      done;
      start := !start + (2 * !len)
    done;
    len := !len * 2
  done;
  for j = 0 to n - 1 do
    a.(j) <- a.(j) * inv256 mod q
  done;
  a

let pointwise a b = Array.init n (fun i -> a.(i) * b.(i) mod q)

(* infinity norm on centered representatives; true if any |c| >= bound *)
let exceeds_norm poly bound =
  Array.exists (fun c -> abs (center c) >= bound) poly

(* --- rounding (spec figure 3) ------------------------------------------ *)

let power2round a =
  let a1 = (a + (1 lsl (d - 1)) - 1) asr d in
  (a1, a - (a1 lsl d)) (* (t1, t0 centered in (-2^12, 2^12]) *)

let decompose ~gamma2 a =
  let alpha = 2 * gamma2 in
  let r0 = a mod alpha in
  let r0 = if r0 > gamma2 then r0 - alpha else r0 in
  if a - r0 = q - 1 then (0, r0 - 1) else ((a - r0) / alpha, r0)

let highbits ~gamma2 a = fst (decompose ~gamma2 a)

(* MakeHint (spec figure 3): flag coefficients whose high bits change when
   the verifier's reconstruction error ct0 is removed. *)
let make_hint ~gamma2 ~with_ct0 ~without_ct0 =
  if highbits ~gamma2 with_ct0 <> highbits ~gamma2 without_ct0 then 1 else 0

let use_hint ~gamma2 h a =
  let m = (q - 1) / (2 * gamma2) in
  let a1, a0 = decompose ~gamma2 a in
  if h = 0 then a1
  else if a0 > 0 then (a1 + 1) mod m
  else (a1 - 1 + m) mod m

(* --- packing ------------------------------------------------------------ *)

let pack_bits d_bits values =
  let out = Bytes.make (d_bits * Array.length values / 8) '\000' in
  let acc = ref 0 and acc_bits = ref 0 and pos = ref 0 in
  Array.iter
    (fun v ->
      acc := !acc lor (v lsl !acc_bits);
      acc_bits := !acc_bits + d_bits;
      while !acc_bits >= 8 do
        Bytes.set out !pos (Char.chr (!acc land 0xff));
        incr pos;
        acc := !acc lsr 8;
        acc_bits := !acc_bits - 8
      done)
    values;
  Bytes.unsafe_to_string out

let unpack_bits d_bits count s off =
  let out = Array.make count 0 in
  let acc = ref 0 and acc_bits = ref 0 and pos = ref off in
  for i = 0 to count - 1 do
    while !acc_bits < d_bits do
      acc := !acc lor (Char.code s.[!pos] lsl !acc_bits);
      incr pos;
      acc_bits := !acc_bits + 8
    done;
    out.(i) <- !acc land ((1 lsl d_bits) - 1);
    acc := !acc lsr d_bits;
    acc_bits := !acc_bits - d_bits
  done;
  out

(* --- expansion streams --------------------------------------------------- *)

type expand = [ `Shake | `Aes ]

let nonce16 v = String.init 2 (fun i -> Char.chr ((v lsr (8 * i)) land 0xff))

(* stream128/stream256 from the spec; the AES profile keys AES-256-CTR
   with the seed and uses the nonce as the IV, as the reference _aes
   variant does. *)
let stream expand ~wide seed nonce : int -> string =
  match expand with
  | `Shake ->
    let x =
      if wide then Crypto.Keccak.Xof.shake128 (seed ^ nonce16 nonce)
      else Crypto.Keccak.Xof.shake256 (seed ^ nonce16 nonce)
    in
    fun len -> Crypto.Keccak.Xof.squeeze x len
  | `Aes ->
    let key =
      if String.length seed = 32 then seed else Crypto.Sha256.digest seed
    in
    Crypto.Aes.ctr_squeeze
      (Crypto.Aes.ctr_stream (Crypto.Aes.expand_key key)
         ~nonce:(nonce16 nonce ^ String.make 10 '\000'))

(* --- parameter sets ------------------------------------------------------ *)

type params = {
  name : string;
  k : int;
  l : int;
  eta : int;
  tau : int;
  beta : int;
  gamma1 : int;
  gamma2 : int;
  omega : int;
  expand : expand;
}

let dilithium2 =
  { name = "dilithium2"; k = 4; l = 4; eta = 2; tau = 39; beta = 78;
    gamma1 = 1 lsl 17; gamma2 = (q - 1) / 88; omega = 80; expand = `Shake }

let dilithium3 =
  { name = "dilithium3"; k = 6; l = 5; eta = 4; tau = 49; beta = 196;
    gamma1 = 1 lsl 19; gamma2 = (q - 1) / 32; omega = 55; expand = `Shake }

let dilithium5 =
  { name = "dilithium5"; k = 8; l = 7; eta = 2; tau = 60; beta = 120;
    gamma1 = 1 lsl 19; gamma2 = (q - 1) / 32; omega = 75; expand = `Shake }

let dilithium2_aes = { dilithium2 with name = "dilithium2_aes"; expand = `Aes }
let dilithium3_aes = { dilithium3 with name = "dilithium3_aes"; expand = `Aes }
let dilithium5_aes = { dilithium5 with name = "dilithium5_aes"; expand = `Aes }

let name p = p.name
let eta_bits p = if p.eta = 2 then 3 else 4
let z_bits p = if p.gamma1 = 1 lsl 17 then 18 else 20
let w1_bits p = if p.gamma2 = (q - 1) / 88 then 6 else 4
let polyt1_bytes = 320
let polyt0_bytes = 416
let polyeta_bytes p = 32 * eta_bits p
let polyz_bytes p = 32 * z_bits p
let public_key_bytes p = seed_bytes + (p.k * polyt1_bytes)

let secret_key_bytes p =
  (3 * seed_bytes) + ((p.l + p.k) * polyeta_bytes p) + (p.k * polyt0_bytes)

let signature_bytes p = seed_bytes + (p.l * polyz_bytes p) + p.omega + p.k

(* --- sampling ------------------------------------------------------------ *)

let poly_uniform p seed nonce =
  let st = stream p.expand ~wide:true seed nonce in
  let out = poly_zero () in
  let filled = ref 0 in
  while !filled < n do
    let b = st 3 in
    let t =
      Char.code b.[0] lor (Char.code b.[1] lsl 8)
      lor ((Char.code b.[2] land 0x7f) lsl 16)
    in
    if t < q then begin
      out.(!filled) <- t;
      incr filled
    end
  done;
  out

let poly_uniform_eta p seed nonce =
  let st = stream p.expand ~wide:false seed nonce in
  let out = poly_zero () in
  let filled = ref 0 in
  while !filled < n do
    let b = Char.code (st 1).[0] in
    let try_nibble t =
      if !filled < n then
        if p.eta = 2 && t < 15 then begin
          out.(!filled) <- modq (2 - (t mod 5));
          incr filled
        end
        else if p.eta = 4 && t < 9 then begin
          out.(!filled) <- modq (4 - t);
          incr filled
        end
    in
    try_nibble (b land 0x0f);
    try_nibble (b lsr 4)
  done;
  out

let polyz_pack p poly =
  pack_bits (z_bits p) (Array.map (fun c -> p.gamma1 - center c) poly)

let polyz_unpack p s off =
  Array.map (fun v -> modq (p.gamma1 - v)) (unpack_bits (z_bits p) n s off)

let poly_uniform_gamma1 p seed nonce =
  let st = stream p.expand ~wide:false seed nonce in
  polyz_unpack p (st (polyz_bytes p)) 0

(* SampleInBall (spec figure 2) *)
let challenge p c_tilde =
  let x = Crypto.Keccak.Xof.shake256 c_tilde in
  let signs = ref (Crypto.Bytesx.get_u64_le (Crypto.Keccak.Xof.squeeze x 8) 0) in
  let c = poly_zero () in
  for i = n - p.tau to n - 1 do
    let rec draw () =
      let b = Char.code (Crypto.Keccak.Xof.squeeze x 1).[0] in
      if b <= i then b else draw ()
    in
    let j = draw () in
    c.(i) <- c.(j);
    c.(j) <- (if Int64.logand !signs 1L = 1L then q - 1 else 1);
    signs := Int64.shift_right_logical !signs 1
  done;
  c

(* --- vector/matrix helpers ---------------------------------------------- *)

let expand_a p rho =
  Array.init p.k (fun i ->
      Array.init p.l (fun j -> poly_uniform p rho ((i lsl 8) + j)))

let mat_vec_mul mat v_hat =
  Array.map
    (fun row ->
      let acc = ref (poly_zero ()) in
      Array.iteri (fun j aij -> acc := poly_add !acc (pointwise aij v_hat.(j))) row;
      !acc)
    mat

let vec_map = Array.map
let vec_map2 f a b = Array.init (Array.length a) (fun i -> f a.(i) b.(i))
let vec_exceeds v bound = Array.exists (fun poly -> exceeds_norm poly bound) v

(* --- key and signature encodings ---------------------------------------- *)

let pack_eta p poly = pack_bits (eta_bits p) (Array.map (fun c -> modq (p.eta - c) land 0xf) poly)

let unpack_eta p s off =
  Array.map (fun v -> modq (p.eta - v)) (unpack_bits (eta_bits p) n s off)

let pack_t0 poly =
  pack_bits 13 (Array.map (fun c -> (1 lsl (d - 1)) - center c) poly)

let unpack_t0 s off =
  Array.map (fun v -> modq ((1 lsl (d - 1)) - v)) (unpack_bits 13 n s off)

let pack_w1 p w1 =
  Crypto.Bytesx.concat (Array.to_list (Array.map (pack_bits (w1_bits p)) w1))

let concat_polys pack vec = Crypto.Bytesx.concat (Array.to_list (Array.map pack vec))

let pack_hints p h =
  let buf = Bytes.make (p.omega + p.k) '\000' in
  let idx = ref 0 in
  Array.iteri
    (fun i poly ->
      Array.iteri
        (fun j v ->
          if v <> 0 then begin
            Bytes.set buf !idx (Char.chr j);
            incr idx
          end)
        poly;
      Bytes.set buf (p.omega + i) (Char.chr !idx))
    h;
  Bytes.unsafe_to_string buf

let unpack_hints p s off =
  let h = Array.init p.k (fun _ -> poly_zero ()) in
  let idx = ref 0 in
  let ok = ref true in
  for i = 0 to p.k - 1 do
    let upto = Char.code s.[off + p.omega + i] in
    if upto < !idx || upto > p.omega then ok := false
    else begin
      let prev = ref (-1) in
      while !idx < upto do
        let j = Char.code s.[off + !idx] in
        if j <= !prev then ok := false; (* positions must increase *)
        prev := j;
        h.(i).(j) <- 1;
        incr idx
      done
    end
  done;
  (* remaining hint slots must be zero *)
  for i = !idx to p.omega - 1 do
    if s.[off + i] <> '\000' then ok := false
  done;
  if !ok then Some h else None

(* --- key generation ------------------------------------------------------ *)

let keygen_from_seed p seed =
  let buf = Crypto.Keccak.shake256 seed ((2 * seed_bytes) + crh_bytes) in
  let rho = String.sub buf 0 32 in
  let rhoprime = String.sub buf 32 crh_bytes in
  let key = String.sub buf (32 + crh_bytes) 32 in
  let a = expand_a p rho in
  let s1 = Array.init p.l (fun i -> poly_uniform_eta p rhoprime i) in
  let s2 = Array.init p.k (fun i -> poly_uniform_eta p rhoprime (p.l + i)) in
  let s1_hat = vec_map ntt s1 in
  let t = vec_map2 poly_add (vec_map inv_ntt (mat_vec_mul a s1_hat)) s2 in
  let t1 = Array.map (Array.map (fun c -> fst (power2round c))) t in
  let t0 =
    Array.map (Array.map (fun c -> modq (snd (power2round c)))) t
  in
  let pk = rho ^ concat_polys (pack_bits 10) t1 in
  let tr = Crypto.Keccak.shake256 pk seed_bytes in
  let sk =
    rho ^ key ^ tr
    ^ concat_polys (pack_eta p) s1
    ^ concat_polys (pack_eta p) s2
    ^ concat_polys pack_t0 t0
  in
  (pk, sk)

let keygen p rng = keygen_from_seed p (Crypto.Drbg.generate rng 32)

(* --- signing -------------------------------------------------------------- *)

type sk_parts = {
  rho : string;
  key : string;
  tr : string;
  s1_hat : poly array;
  s2_hat : poly array;
  t0_hat : poly array;
}

let parse_sk p sk =
  if String.length sk <> secret_key_bytes p then invalid_arg "Dilithium: bad sk";
  let rho = String.sub sk 0 32 in
  let key = String.sub sk 32 32 in
  let tr = String.sub sk 64 32 in
  let off = ref 96 in
  let read_vec count reader size =
    Array.init count (fun _ ->
        let v = reader sk !off in
        off := !off + size;
        v)
  in
  let s1 = read_vec p.l (unpack_eta p) (polyeta_bytes p) in
  let s2 = read_vec p.k (unpack_eta p) (polyeta_bytes p) in
  let t0 = read_vec p.k unpack_t0 polyt0_bytes in
  { rho; key; tr; s1_hat = vec_map ntt s1; s2_hat = vec_map ntt s2;
    t0_hat = vec_map ntt t0 }

let sign p sk msg =
  let { rho; key; tr; s1_hat; s2_hat; t0_hat } = parse_sk p sk in
  let a = expand_a p rho in
  let mu = Crypto.Keccak.shake256 (tr ^ msg) crh_bytes in
  let rhoprime = Crypto.Keccak.shake256 (key ^ mu) crh_bytes in
  let rec attempt kappa =
    let y = Array.init p.l (fun i -> poly_uniform_gamma1 p rhoprime ((p.l * kappa) + i)) in
    let y_hat = vec_map ntt y in
    let w = vec_map inv_ntt (mat_vec_mul a y_hat) in
    let w1 = vec_map (Array.map (highbits ~gamma2:p.gamma2)) w in
    let c_tilde =
      Crypto.Keccak.shake256 (mu ^ pack_w1 p w1) seed_bytes
    in
    let c = challenge p c_tilde in
    let c_hat = ntt c in
    let z =
      vec_map2 poly_add y (vec_map (fun s -> inv_ntt (pointwise c_hat s)) s1_hat)
    in
    if vec_exceeds z (p.gamma1 - p.beta) then attempt (kappa + 1)
    else begin
      let cs2 = vec_map (fun s -> inv_ntt (pointwise c_hat s)) s2_hat in
      let w_minus_cs2 = vec_map2 poly_sub w cs2 in
      let r0 =
        vec_map (Array.map (fun v -> snd (decompose ~gamma2:p.gamma2 v))) w_minus_cs2
      in
      let r0_exceeds =
        Array.exists (Array.exists (fun v -> abs v >= p.gamma2 - p.beta)) r0
      in
      if r0_exceeds then attempt (kappa + 1)
      else begin
        let ct0 = vec_map (fun t -> inv_ntt (pointwise c_hat t)) t0_hat in
        if vec_exceeds ct0 p.gamma2 then attempt (kappa + 1)
        else begin
          let with_ct0 = vec_map2 poly_add w_minus_cs2 ct0 in
          let hints =
            Array.init p.k (fun i ->
                Array.init n (fun j ->
                    make_hint ~gamma2:p.gamma2 ~with_ct0:with_ct0.(i).(j)
                      ~without_ct0:w_minus_cs2.(i).(j)))
          in
          let count =
            Array.fold_left
              (fun acc poly -> acc + Array.fold_left ( + ) 0 poly)
              0 hints
          in
          if count > p.omega then attempt (kappa + 1)
          else c_tilde ^ concat_polys (polyz_pack p) z ^ pack_hints p hints
        end
      end
    end
  in
  attempt 0

(* --- verification ---------------------------------------------------------- *)

let verify p pk ~msg signature =
  if String.length pk <> public_key_bytes p
     || String.length signature <> signature_bytes p
  then false
  else begin
    let rho = String.sub pk 0 32 in
    let t1 =
      Array.init p.k (fun i ->
          unpack_bits 10 n pk (seed_bytes + (polyt1_bytes * i)))
    in
    let c_tilde = String.sub signature 0 seed_bytes in
    let z =
      Array.init p.l (fun i ->
          polyz_unpack p signature (seed_bytes + (polyz_bytes p * i)))
    in
    match unpack_hints p signature (seed_bytes + (p.l * polyz_bytes p)) with
    | None -> false
    | Some h ->
      if vec_exceeds z (p.gamma1 - p.beta) then false
      else begin
        let a = expand_a p rho in
        let tr = Crypto.Keccak.shake256 pk seed_bytes in
        let mu = Crypto.Keccak.shake256 (tr ^ msg) crh_bytes in
        let c = challenge p c_tilde in
        let c_hat = ntt c in
        let az = mat_vec_mul a (vec_map ntt z) in
        let t1_shifted_hat =
          vec_map (fun poly -> ntt (Array.map (fun v -> modq (v lsl d)) poly)) t1
        in
        let w_approx =
          vec_map inv_ntt
            (vec_map2 (fun azi cti -> poly_sub azi (pointwise c_hat cti)) az
               t1_shifted_hat)
        in
        let w1' =
          Array.init p.k (fun i ->
              Array.init n (fun j ->
                  use_hint ~gamma2:p.gamma2 h.(i).(j) w_approx.(i).(j)))
        in
        let expected = Crypto.Keccak.shake256 (mu ^ pack_w1 p w1') seed_bytes in
        Crypto.Bytesx.equal_ct expected c_tilde
      end
  end

(* ---- micro-benchmark kernel hook ----------------------------------------- *)

let bench_ntt () =
  let p = Array.init n (fun i -> i * 1753 mod q) in
  fun () -> ignore (ntt p : poly)
