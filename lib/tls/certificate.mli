(** A minimal X.509-shaped certificate: a TBS blob (names, validity,
    serial, the subject public key) signed by an issuer. Field framing
    plus a fixed DER-overhead pad keep encoded sizes close to what
    OpenSSL emits for the same key/signature algorithm. {!Chain.make}
    issues every certificate. *)

type t = {
  subject : string;
  issuer : string;
  algorithm : string;  (** signature algorithm name, paper spelling *)
  public_key : string;
  tbs_extra : string;  (** serial/validity/extensions stand-in *)
  signature : string;
}

val encode_parts : t -> string list
(** The encoding as a list of parts ({!Wire.vec8} and friends), for a
    message encoder that concatenates the whole message once. *)

val decode : Wire.Reader.t -> t
(** Reads one certificate, which must fill the cursor's range (a
    CertificateEntry's cert_data).
    @raise Wire.Decode_error on a malformed or trailing field. *)

val tbs : t -> string
(** The signed portion, for verification. *)

