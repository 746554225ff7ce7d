type keypair = { public : string; secret : string }

type t = {
  name : string;
  level : int;
  hybrid : bool;
  mocked : bool;
  sim_suites : bool;
  public_key_bytes : int;
  ciphertext_bytes : int;
  shared_secret_bytes : int;
  keygen : Crypto.Drbg.t -> keypair;
  encaps : Crypto.Drbg.t -> string -> string * string;
  decaps : string -> string -> string;
}

let of_kyber params ~level =
  { name = Kyber.name params;
    level;
    hybrid = false;
    mocked = false;
    sim_suites = false;
    public_key_bytes = Kyber.public_key_bytes params;
    ciphertext_bytes = Kyber.ciphertext_bytes params;
    shared_secret_bytes = Kyber.shared_secret_bytes;
    keygen =
      (fun rng ->
        let public, secret = Kyber.keygen params rng in
        { public; secret });
    encaps = (fun rng pk -> Kyber.encaps params rng pk);
    decaps = (fun secret ct -> Kyber.decaps params secret ct) }

let x25519 =
  { name = "x25519";
    level = 1;
    hybrid = false;
    mocked = false;
    sim_suites = false;
    public_key_bytes = 32;
    ciphertext_bytes = 32;
    shared_secret_bytes = 32;
    keygen =
      (fun rng ->
        let secret = Crypto.Drbg.generate rng 32 in
        { public = Crypto.X25519.public_of_secret secret; secret });
    encaps =
      (fun rng peer_public ->
        let secret = Crypto.Drbg.generate rng 32 in
        let ct = Crypto.X25519.public_of_secret secret in
        (ct, Crypto.X25519.scalar_mult ~scalar:secret ~point:peer_public));
    decaps =
      (fun secret ct -> Crypto.X25519.scalar_mult ~scalar:secret ~point:ct) }

let of_ec_curve curve ~name ~level =
  let point_bytes = 1 + (2 * curve.Crypto.Ec.byte_size) in
  let encode_secret d = Crypto.Bignum.to_bytes_be ~len:curve.Crypto.Ec.byte_size d in
  let decode_point s =
    match Crypto.Ec.decode_point curve s with
    | Some p -> p
    | None -> invalid_arg (name ^ ": invalid point")
  in
  { name;
    level;
    hybrid = false;
    mocked = false;
    sim_suites = false;
    public_key_bytes = point_bytes;
    ciphertext_bytes = point_bytes;
    shared_secret_bytes = curve.Crypto.Ec.byte_size;
    keygen =
      (fun rng ->
        let d, q = Crypto.Ec.gen_keypair curve rng in
        { public = Crypto.Ec.encode_point curve q; secret = encode_secret d });
    encaps =
      (fun rng peer_public ->
        let d, q = Crypto.Ec.gen_keypair curve rng in
        let ss = Crypto.Ec.ecdh curve d (decode_point peer_public) in
        (Crypto.Ec.encode_point curve q, ss));
    decaps =
      (fun secret ct ->
        Crypto.Ec.ecdh curve (Crypto.Bignum.of_bytes_be secret) (decode_point ct)) }

(* Sim_suites' keygen, encaps and decaps at the given sizes, each call
   under the memo [memo ()] returns *)
let sim_ops memo ~public_key_bytes:pk_len ~ciphertext_bytes:ct_len
    ~shared_secret_bytes:ss_len =
  ( (fun rng ->
      let public, secret = Sim_suites.kem_keygen (memo ()) rng ~pk_len in
      { public; secret }),
    (fun rng pk -> Sim_suites.kem_encaps (memo ()) rng ~pk ~ct_len ~ss_len),
    fun secret ct ->
      Sim_suites.kem_decaps (memo ()) ~sk:secret ~ct ~pk_len ~ct_len ~ss_len )

let simulated ~name ~level ~public_key_bytes ~ciphertext_bytes
    ~shared_secret_bytes =
  let keygen, encaps, decaps =
    sim_ops Crypto.Memo.create ~public_key_bytes ~ciphertext_bytes
      ~shared_secret_bytes
  in
  { name;
    level;
    hybrid = false;
    mocked = false;
    sim_suites = true;
    public_key_bytes;
    ciphertext_bytes;
    shared_secret_bytes;
    keygen;
    encaps;
    decaps }

(* draft-ietf-tls-hybrid-design: fixed-width concatenation of shares,
   ciphertexts and shared secrets. *)
let hybrid classical pq_kem =
  let split_public s =
    ( String.sub s 0 classical.public_key_bytes,
      String.sub s classical.public_key_bytes pq_kem.public_key_bytes )
  and split_ct s =
    ( String.sub s 0 classical.ciphertext_bytes,
      String.sub s classical.ciphertext_bytes pq_kem.ciphertext_bytes )
  in
  { name = classical.name ^ "_" ^ pq_kem.name;
    level = max classical.level pq_kem.level;
    hybrid = true;
    mocked = false;
    sim_suites = false;
    public_key_bytes = classical.public_key_bytes + pq_kem.public_key_bytes;
    ciphertext_bytes = classical.ciphertext_bytes + pq_kem.ciphertext_bytes;
    shared_secret_bytes =
      classical.shared_secret_bytes + pq_kem.shared_secret_bytes;
    keygen =
      (fun rng ->
        let a = classical.keygen rng and b = pq_kem.keygen rng in
        { public = a.public ^ b.public;
          secret =
            Crypto.Bytesx.u16_be (String.length a.secret) ^ a.secret ^ b.secret });
    encaps =
      (fun rng pk ->
        let pk_a, pk_b = split_public pk in
        let ct_a, ss_a = classical.encaps rng pk_a in
        let ct_b, ss_b = pq_kem.encaps rng pk_b in
        (ct_a ^ ct_b, ss_a ^ ss_b));
    decaps =
      (fun secret ct ->
        let alen = Char.code secret.[0] lsl 8 lor Char.code secret.[1] in
        let sk_a = String.sub secret 2 alen in
        let sk_b = String.sub secret (2 + alen) (String.length secret - 2 - alen) in
        let ct_a, ct_b = split_ct ct in
        classical.decaps sk_a ct_a ^ pq_kem.decaps sk_b ct_b) }

(* [k]'s operations on Sim_suites, each call under [memo ()] *)
let on_sim_suites memo k =
  let keygen, encaps, decaps =
    sim_ops memo ~public_key_bytes:k.public_key_bytes
      ~ciphertext_bytes:k.ciphertext_bytes
      ~shared_secret_bytes:k.shared_secret_bytes
  in
  { k with sim_suites = true; keygen; encaps; decaps }

let mocked k =
  if k.mocked then k
  else on_sim_suites Crypto.Memo.create { k with mocked = true }

let share memo k = if k.sim_suites then on_sim_suites (fun () -> memo) k else k
