type t = {
  subject : string;
  issuer : string;
  algorithm : string;
  public_key : string;
  tbs_extra : string;
  signature : string;
}

let tbs_parts c =
  Wire.vec8 [ c.subject ] @ Wire.vec8 [ c.issuer ] @ Wire.vec8 [ c.algorithm ]
  @ Wire.vec16 [ c.public_key ] @ Wire.vec8 [ c.tbs_extra ]

let tbs c = String.concat "" (tbs_parts c)
let encode_parts c = tbs_parts c @ Wire.vec24 [ c.signature ]

let decode r =
  let subject = Wire.Reader.vec8 r in
  let issuer = Wire.Reader.vec8 r in
  let algorithm = Wire.Reader.vec8 r in
  let public_key = Wire.Reader.vec16 r in
  let tbs_extra = Wire.Reader.vec8 r in
  let signature = Wire.Reader.vec24 r in
  Wire.Reader.expect_end r;
  { subject; issuer; algorithm; public_key; tbs_extra; signature }
