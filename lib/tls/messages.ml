module W = Wire
module HT = Wire.Handshake_type

type psk_offer = {
  psk_identity : string;  (* the opaque (STEK-sealed) ticket *)
  psk_obfuscated_age : int;
  psk_binder : string;  (* 32-byte HMAC over the truncated CH transcript *)
}

type client_hello = {
  random : string;
  session_id : string;
  group : string;
  key_share : string;
  sig_algs : string list;
  psk_offer : psk_offer option;
  early_data : bool;
}

type server_hello = {
  sh_random : string;
  sh_session_id : string;
  sh_group : string;
  sh_key_share : string;
  sh_psk_selected : bool;  (* pre_shared_key { selected_identity = 0 } *)
}

type new_session_ticket = {
  nst_lifetime : int;  (* seconds, u32 *)
  nst_age_add : int;  (* u32 *)
  nst_nonce : string;
  nst_ticket : string;  (* opaque to the client *)
  nst_max_early_data : int;  (* 0 = ticket does not permit 0-RTT *)
}

type certificate_verify = { cv_algorithm : string; cv_signature : string }

(* cipher suites offered: TLS_AES_128_GCM_SHA256, TLS_AES_256_GCM_SHA384,
   TLS_CHACHA20_POLY1305_SHA256 *)
let cipher_suites = "\x13\x01\x13\x02\x13\x03"
let selected_suite = "\x13\x01"

let extension ty body = Crypto.Bytesx.u16_be ty ^ W.vec16 body

(* The OpenSSL s_client CH also carries SNI, EC point formats, session
   ticket, encrypt-then-mac, extended master secret, PSK modes and
   padding-free framing; modelled with realistic bodies. *)
let client_extensions ch =
  let sni =
    extension 0 (W.vec16 ("\x00" ^ W.vec16 "server.pqtls.example"))
  in
  let supported_versions = extension 43 (W.vec8 "\x03\x04") in
  let groups =
    (* the client announces a handful of groups; two bytes each *)
    let ids = String.concat "" (List.init 12 (fun i -> Crypto.Bytesx.u16_be (0x0100 + i))) in
    extension 10 (W.vec16 ids)
  in
  let sig_algs =
    let ids =
      String.concat ""
        (List.init (max 17 (List.length ch.sig_algs)) (fun i ->
             Crypto.Bytesx.u16_be (0x0800 + i)))
    in
    extension 13 (W.vec16 ids)
  in
  let key_share =
    extension 51 (W.vec16 (Crypto.Bytesx.u16_be 0x0199 ^ W.vec16 ch.key_share))
  in
  (* psk_key_exchange_modes: psk_dhe_ke only (section 4.2.9) *)
  let psk_modes = extension 45 (W.vec8 "\x01") in
  let misc =
    (* EMS, EtM, record size limit: fixed small bodies. The legacy
       session_ticket (35) stub is only advertised on full handshakes:
       offering a real TLS 1.3 PSK alongside a fake empty ticket body
       would be a wire lie. *)
    (match ch.psk_offer with None -> extension 35 "" | Some _ -> "")
    ^ extension 23 "" ^ extension 22 "" ^ extension 28 "\x40\x01"
  in
  (* group and algorithm names ride in a private extension so the peer
     can resolve the exact algorithm without a numeric registry *)
  let names = extension 0xfd00 (W.vec8 ch.group ^ W.vec8 (String.concat "," ch.sig_algs)) in
  let early_data = if ch.early_data then extension 42 "" else "" in
  (* pre_shared_key MUST be the last extension (section 4.2.11): the
     binder MAC covers everything before it *)
  let pre_shared_key =
    match ch.psk_offer with
    | None -> ""
    | Some p ->
      let identity =
        W.vec16 p.psk_identity ^ Crypto.Bytesx.u32_be p.psk_obfuscated_age
      in
      extension 41 (W.vec16 identity ^ W.vec16 (W.vec8 p.psk_binder))
  in
  W.vec16
    (sni ^ supported_versions ^ groups ^ sig_algs ^ key_share ^ psk_modes
   ^ misc ^ names ^ early_data ^ pre_shared_key)

(* the wire size of the binders list: vec16 [ vec8 (32-byte binder) ] *)
let binders_length = 2 + 1 + 32

let assert_psk_last exts =
  (* encoder self-check for the section 4.2.11 MUST *)
  let r = W.Reader.of_string exts in
  let last = ref None in
  while W.Reader.remaining r > 0 do
    last := Some (W.Reader.u16 r);
    ignore (W.Reader.vec16 r)
  done;
  assert (!last = Some 41)

let encode_client_hello ch =
  let body =
    "\x03\x03" ^ ch.random ^ W.vec8 ch.session_id ^ W.vec16 cipher_suites
    ^ W.vec8 "\x00" (* null compression *)
    ^ client_extensions ch
  in
  (match ch.psk_offer with
  | None -> ()
  | Some p ->
    assert (String.length p.psk_binder = 32);
    let exts = client_extensions ch in
    assert_psk_last (String.sub exts 2 (String.length exts - 2)));
  W.handshake HT.Client_hello body

let truncated_client_hello ch =
  (* the binder transcript: the encoded CH minus the binders list
     (section 4.2.11.2) *)
  assert (ch.psk_offer <> None);
  let full = encode_client_hello ch in
  String.sub full 0 (String.length full - binders_length)

let find_extension_opt exts ty =
  let r = W.Reader.of_string exts in
  let rec go () =
    if W.Reader.remaining r = 0 then None
    else begin
      let t = W.Reader.u16 r in
      let body = W.Reader.vec16 r in
      if t = ty then Some body else go ()
    end
  in
  go ()

let find_extension exts ty =
  match find_extension_opt exts ty with
  | Some body -> body
  | None -> raise (W.Decode_error "extension missing")

let body msg =
  if String.length msg < 4 then raise (W.Decode_error "short handshake message");
  String.sub msg 4 (String.length msg - 4)

let handshake_type msg =
  if String.length msg < 4 then raise (W.Decode_error "short handshake message");
  HT.of_byte (Char.code msg.[0])

let decode_client_hello msg =
  if handshake_type msg <> HT.Client_hello then
    raise (W.Decode_error "not a ClientHello");
  let r = W.Reader.of_string (body msg) in
  let _version = W.Reader.u16 r in
  let random = W.Reader.bytes r 32 in
  let session_id = W.Reader.vec8 r in
  let _suites = W.Reader.vec16 r in
  let _comp = W.Reader.vec8 r in
  let exts = W.Reader.vec16 r in
  W.Reader.expect_end r;
  let key_share =
    (* client_shares list wrapper, then the single offered share *)
    let kr = W.Reader.of_string (find_extension exts 51) in
    let shares = W.Reader.of_string (W.Reader.vec16 kr) in
    let _group = W.Reader.u16 shares in
    W.Reader.vec16 shares
  in
  let names = W.Reader.of_string (find_extension exts 0xfd00) in
  let group = W.Reader.vec8 names in
  let sig_algs = String.split_on_char ',' (W.Reader.vec8 names) in
  let psk_offer =
    match find_extension_opt exts 41 with
    | None -> None
    | Some body ->
      (* receiver-side section 4.2.11 enforcement: pre_shared_key must
         close the extension block *)
      let er = W.Reader.of_string exts in
      let last = ref (-1) in
      while W.Reader.remaining er > 0 do
        last := W.Reader.u16 er;
        ignore (W.Reader.vec16 er)
      done;
      if !last <> 41 then
        raise (W.Decode_error "pre_shared_key is not the last extension");
      let r = W.Reader.of_string body in
      let ids = W.Reader.of_string (W.Reader.vec16 r) in
      let psk_identity = W.Reader.vec16 ids in
      let psk_obfuscated_age = W.Reader.u32 ids in
      W.Reader.expect_end ids;
      let binders = W.Reader.of_string (W.Reader.vec16 r) in
      let psk_binder = W.Reader.vec8 binders in
      W.Reader.expect_end binders;
      W.Reader.expect_end r;
      Some { psk_identity; psk_obfuscated_age; psk_binder }
  in
  let early_data = find_extension_opt exts 42 <> None in
  { random; session_id; group; key_share; sig_algs; psk_offer; early_data }

let server_extensions sh =
  let supported_versions = extension 43 "\x03\x04" in
  let key_share =
    extension 51 (Crypto.Bytesx.u16_be 0x0199 ^ W.vec16 sh.sh_key_share)
  in
  (* pre_shared_key: the accepted identity index (always 0 — one offer) *)
  let psk_ext =
    if sh.sh_psk_selected then extension 41 (Crypto.Bytesx.u16_be 0) else ""
  in
  let names = extension 0xfd00 (W.vec8 sh.sh_group) in
  W.vec16 (supported_versions ^ key_share ^ psk_ext ^ names)

let encode_server_hello sh =
  let body =
    "\x03\x03" ^ sh.sh_random ^ W.vec8 sh.sh_session_id ^ selected_suite
    ^ "\x00" (* compression *)
    ^ server_extensions sh
  in
  W.handshake HT.Server_hello body

let decode_server_hello msg =
  if handshake_type msg <> HT.Server_hello then
    raise (W.Decode_error "not a ServerHello");
  let r = W.Reader.of_string (body msg) in
  let _version = W.Reader.u16 r in
  let sh_random = W.Reader.bytes r 32 in
  let sh_session_id = W.Reader.vec8 r in
  let _suite = W.Reader.bytes r 2 in
  let _comp = W.Reader.u8 r in
  let exts = W.Reader.vec16 r in
  W.Reader.expect_end r;
  let sh_key_share =
    let ks = find_extension exts 51 in
    let kr = W.Reader.of_string ks in
    let _group = W.Reader.u16 kr in
    W.Reader.vec16 kr
  in
  let names = W.Reader.of_string (find_extension exts 0xfd00) in
  let sh_group = W.Reader.vec8 names in
  let sh_psk_selected = find_extension_opt exts 41 <> None in
  { sh_random; sh_session_id; sh_group; sh_key_share; sh_psk_selected }

let encode_encrypted_extensions ?(early_data_accepted = false) () =
  (* server name ack + ALPN-free empty extension block; the early_data
     ack (42) when the server accepts the client's 0-RTT offer *)
  let ed = if early_data_accepted then extension 42 "" else "" in
  W.handshake HT.Encrypted_extensions (W.vec16 (extension 0 "" ^ ed))

let ee_early_data_accepted msg =
  if handshake_type msg <> HT.Encrypted_extensions then
    raise (W.Decode_error "not an EncryptedExtensions");
  let r = W.Reader.of_string (body msg) in
  let exts = W.Reader.vec16 r in
  W.Reader.expect_end r;
  find_extension_opt exts 42 <> None

let encode_certificate_chain certs =
  (* certificate_request_context (empty) + one CertificateEntry per
     certificate, leaf first (RFC 8446 section 4.4.2), each carrying an
     empty per-entry extension list *)
  let entries =
    List.concat_map
      (fun c ->
        let cert = Certificate.encode_parts c in
        (W.prefix24 (W.parts_length cert) :: cert) @ [ W.vec16 "" ])
      certs
  in
  W.handshake_parts HT.Certificate
    (W.vec8 "" :: W.prefix24 (W.parts_length entries) :: entries)

let encode_certificate cert = encode_certificate_chain [ cert ]

let decode_certificate_chain msg =
  if handshake_type msg <> HT.Certificate then
    raise (W.Decode_error "not a Certificate");
  let r = W.Reader.of_string (body msg) in
  let _ctx = W.Reader.vec8 r in
  let entries = W.Reader.of_string (W.Reader.vec24 r) in
  let rec entry_loop acc =
    if W.Reader.remaining entries = 0 then List.rev acc
    else
      let cert = Certificate.decode (W.Reader.vec24 entries) in
      let _exts = W.Reader.vec16 entries in
      entry_loop (cert :: acc)
  in
  match entry_loop [] with
  | [] -> raise (W.Decode_error "Certificate: empty certificate_list")
  | certs -> certs

let decode_certificate msg =
  match decode_certificate_chain msg with
  | [ cert ] -> cert
  | _ -> raise (W.Decode_error "Certificate: expected a single entry")

let encode_certificate_verify cv =
  W.handshake_parts HT.Certificate_verify
    [ W.vec8 cv.cv_algorithm;
      W.prefix16 (String.length cv.cv_signature);
      cv.cv_signature ]

let decode_certificate_verify msg =
  if handshake_type msg <> HT.Certificate_verify then
    raise (W.Decode_error "not a CertificateVerify");
  let r = W.Reader.of_string (body msg) in
  let cv_algorithm = W.Reader.vec8 r in
  let cv_signature = W.Reader.vec16 r in
  W.Reader.expect_end r;
  { cv_algorithm; cv_signature }

let cv_signed_content ~transcript_hash =
  String.make 64 ' ' ^ "TLS 1.3, server CertificateVerify" ^ "\x00"
  ^ transcript_hash

let encode_new_session_ticket nst =
  let exts =
    if nst.nst_max_early_data > 0 then
      extension 42 (Crypto.Bytesx.u32_be nst.nst_max_early_data)
    else ""
  in
  W.handshake HT.New_session_ticket
    (Crypto.Bytesx.u32_be nst.nst_lifetime
    ^ Crypto.Bytesx.u32_be nst.nst_age_add
    ^ W.vec8 nst.nst_nonce ^ W.vec16 nst.nst_ticket ^ W.vec16 exts)

let decode_new_session_ticket msg =
  if handshake_type msg <> HT.New_session_ticket then
    raise (W.Decode_error "not a NewSessionTicket");
  let r = W.Reader.of_string (body msg) in
  let nst_lifetime = W.Reader.u32 r in
  let nst_age_add = W.Reader.u32 r in
  let nst_nonce = W.Reader.vec8 r in
  let nst_ticket = W.Reader.vec16 r in
  let exts = W.Reader.vec16 r in
  W.Reader.expect_end r;
  let nst_max_early_data =
    match find_extension_opt exts 42 with
    | None -> 0
    | Some body ->
      let er = W.Reader.of_string body in
      let v = W.Reader.u32 er in
      W.Reader.expect_end er;
      v
  in
  { nst_lifetime; nst_age_add; nst_nonce; nst_ticket; nst_max_early_data }

let encode_end_of_early_data () = W.handshake HT.End_of_early_data ""

let encode_finished mac = W.handshake HT.Finished mac

let decode_finished msg =
  if handshake_type msg <> HT.Finished then raise (W.Decode_error "not a Finished");
  body msg
