type keypair = { public : string; secret : string }

type t = {
  name : string;
  level : int;
  hybrid : bool;
  mocked : bool;
  sim_suites : bool;
  public_key_bytes : int;
  signature_bytes : int;
  keygen : Crypto.Drbg.t -> keypair;
  sign : Crypto.Drbg.t -> secret:string -> string -> string;
  verify : public:string -> msg:string -> string -> bool;
}

(* An RSA public key encodes as our compact n/e framing: a 2-byte
   length and the modulus, then a 2-byte length and the 3-byte F4
   exponent, close to the DER SubjectPublicKeyInfo sizes OpenSSL
   produces. The sizes need no key, so none is built before the first
   keygen or signature. *)
let rsa ~bits ~level =
  let modulus = bits / 8 in
  { name = Printf.sprintf "rsa:%d" bits;
    level;
    hybrid = false;
    mocked = false;
    sim_suites = false;
    public_key_bytes = 2 + modulus + 2 + 3;
    signature_bytes = modulus;
    keygen =
      (fun _rng ->
        (* fixed embedded key: see .mli *)
        let k = Crypto.Rsa_keys.fixed_key bits in
        { public = Crypto.Rsa.encode_pub k.Crypto.Rsa.pub;
          secret = string_of_int bits });
    sign =
      (fun _rng ~secret msg ->
        let k = Crypto.Rsa_keys.fixed_key (int_of_string secret) in
        Crypto.Rsa.sign_pkcs1_sha256 k msg);
    verify =
      (fun ~public ~msg signature ->
        match Crypto.Rsa.decode_pub public with
        | None -> false
        | Some pub -> Crypto.Rsa.verify_pkcs1_sha256 pub ~msg signature) }

let ecdsa curve ~name ~level =
  let coord = curve.Crypto.Ec.byte_size in
  { name;
    level;
    hybrid = false;
    mocked = false;
    sim_suites = false;
    public_key_bytes = 1 + (2 * coord);
    signature_bytes = 2 * coord;
    keygen =
      (fun rng ->
        let d, q = Crypto.Ec.gen_keypair curve rng in
        { public = Crypto.Ec.encode_point curve q;
          secret = Crypto.Bignum.to_bytes_be ~len:coord d });
    sign =
      (fun rng ~secret msg ->
        Crypto.Ec.ecdsa_sign curve rng
          ~key:(Crypto.Bignum.of_bytes_be secret)
          ~digest:(Crypto.Sha256.digest msg));
    verify =
      (fun ~public ~msg signature ->
        match Crypto.Ec.decode_point curve public with
        | None -> false
        | Some pub ->
          Crypto.Ec.ecdsa_verify curve ~pub ~digest:(Crypto.Sha256.digest msg)
            signature) }

let of_dilithium params ~level =
  { name = Dilithium.name params;
    level;
    hybrid = false;
    mocked = false;
    sim_suites = false;
    public_key_bytes = Dilithium.public_key_bytes params;
    signature_bytes = Dilithium.signature_bytes params;
    keygen =
      (fun rng ->
        let public, secret = Dilithium.keygen params rng in
        { public; secret });
    sign = (fun _rng ~secret msg -> Dilithium.sign params secret msg);
    verify =
      (fun ~public ~msg signature ->
        Dilithium.verify params public ~msg signature) }

let of_slh params ~level =
  { name = Slh.name params;
    level;
    hybrid = false;
    mocked = false;
    sim_suites = false;
    public_key_bytes = Slh.public_key_bytes params;
    signature_bytes = Slh.signature_bytes params;
    keygen =
      (fun rng ->
        let public, secret = Slh.keygen params rng in
        { public; secret });
    sign = (fun _rng ~secret msg -> Slh.sign params secret msg);
    verify = (fun ~public ~msg signature -> Slh.verify params public ~msg signature) }

(* Sim_suites' keygen, sign and verify at the given sizes, each call
   under the memo [memo ()] returns *)
let sim_ops memo ~public_key_bytes:pk_len ~signature_bytes:sig_len =
  ( (fun rng ->
      let public, secret = Sim_suites.sig_keygen (memo ()) rng ~pk_len in
      { public; secret }),
    (fun _rng ~secret msg ->
      Sim_suites.sig_sign (memo ()) ~sk:secret ~msg ~sig_len ~pk_len),
    fun ~public ~msg signature ->
      Sim_suites.sig_verify (memo ()) ~pk:public ~msg ~sig_len signature )

let simulated ~name ~level ~public_key_bytes ~signature_bytes =
  let keygen, sign, verify =
    sim_ops Crypto.Memo.create ~public_key_bytes ~signature_bytes
  in
  { name;
    level;
    hybrid = false;
    mocked = false;
    sim_suites = true;
    public_key_bytes;
    signature_bytes;
    keygen;
    sign;
    verify }

(* Composite signatures (draft-ounsworth-pq-composite-sigs flavour):
   both components sign the same message; a 2-byte prefix records the
   classical component's length on keys, secrets and signatures. *)
let hybrid classical pq_alg =
  let with_len a b = Crypto.Bytesx.u16_be (String.length a) ^ a ^ b in
  let split s =
    let alen = (Char.code s.[0] lsl 8) lor Char.code s.[1] in
    (String.sub s 2 alen, String.sub s (2 + alen) (String.length s - 2 - alen))
  in
  { name = classical.name ^ "_" ^ pq_alg.name;
    level = max classical.level pq_alg.level;
    hybrid = true;
    mocked = false;
    sim_suites = false;
    public_key_bytes = 2 + classical.public_key_bytes + pq_alg.public_key_bytes;
    signature_bytes = 2 + classical.signature_bytes + pq_alg.signature_bytes;
    keygen =
      (fun rng ->
        let a = classical.keygen rng and b = pq_alg.keygen rng in
        { public = with_len a.public b.public; secret = with_len a.secret b.secret });
    sign =
      (fun rng ~secret msg ->
        let sk_a, sk_b = split secret in
        with_len (classical.sign rng ~secret:sk_a msg) (pq_alg.sign rng ~secret:sk_b msg));
    verify =
      (fun ~public ~msg signature ->
        let pk_a, pk_b = split public in
        match split signature with
        | sig_a, sig_b ->
          classical.verify ~public:pk_a ~msg sig_a
          && pq_alg.verify ~public:pk_b ~msg sig_b
        | exception _ -> false) }

(* [s]'s operations on Sim_suites, each call under [memo ()] *)
let on_sim_suites memo s =
  let keygen, sign, verify =
    sim_ops memo ~public_key_bytes:s.public_key_bytes
      ~signature_bytes:s.signature_bytes
  in
  { s with sim_suites = true; keygen; sign; verify }

let mocked s =
  if s.mocked then s
  else on_sim_suites Crypto.Memo.create { s with mocked = true }

let share memo s = if s.sim_suites then on_sim_suites (fun () -> memo) s else s
