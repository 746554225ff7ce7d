type t = {
  subject : string;
  issuer : string;
  algorithm : string;
  public_key : string;
  tbs_extra : string;
  signature : string;
}

type chain = { leaf : t; ca_public_key : string }

(* serial, validity, SKI/AKI, basicConstraints etc. in a real DER cert *)
let der_overhead = 10

let tbs_parts c =
  [ Wire.vec8 c.subject; Wire.vec8 c.issuer; Wire.vec8 c.algorithm;
    Wire.prefix16 (String.length c.public_key); c.public_key;
    Wire.vec8 c.tbs_extra ]

let tbs c = String.concat "" (tbs_parts c)

let make_chain alg rng =
  let ca = alg.Pqc.Sigalg.keygen rng in
  let server = alg.Pqc.Sigalg.keygen rng in
  let leaf =
    { subject = "server.pqtls.example";
      issuer = "ca.pqtls.example";
      algorithm = alg.Pqc.Sigalg.name;
      public_key = server.Pqc.Sigalg.public;
      tbs_extra = String.make der_overhead '\x5a';
      signature = "" }
  in
  let signature = alg.Pqc.Sigalg.sign rng ~secret:ca.Pqc.Sigalg.secret (tbs leaf) in
  ({ leaf = { leaf with signature }; ca_public_key = ca.Pqc.Sigalg.public },
   server)

let encode_parts c =
  tbs_parts c @ [ Wire.prefix24 (String.length c.signature); c.signature ]

let encode c = String.concat "" (encode_parts c)

let decode s =
  let r = Wire.Reader.of_string s in
  let subject = Wire.Reader.vec8 r in
  let issuer = Wire.Reader.vec8 r in
  let algorithm = Wire.Reader.vec8 r in
  let public_key = Wire.Reader.vec16 r in
  let tbs_extra = Wire.Reader.vec8 r in
  let signature = Wire.Reader.vec24 r in
  Wire.Reader.expect_end r;
  { subject; issuer; algorithm; public_key; tbs_extra; signature }

let verify chain alg =
  alg.Pqc.Sigalg.verify ~public:chain.ca_public_key ~msg:(tbs chain.leaf)
    chain.leaf.signature
[@@lint.allow "M2" "test: tls certificate chain: make_chain's leaf verifies \
                    under its CA key and a tampered subject does not"]
