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

let u16 = Crypto.Bytesx.u16_be
let u32 = Crypto.Bytesx.u32_be

(* cipher suites offered: TLS_AES_128_GCM_SHA256, TLS_AES_256_GCM_SHA384,
   TLS_CHACHA20_POLY1305_SHA256 *)
let cipher_suites = "\x13\x01\x13\x02\x13\x03"
let selected_suite = "\x13\x01"

let extension ty body = u16 ty :: W.vec16 body

(* the binders list of one 32-byte binder, which closes a ClientHello
   with a PSK offer *)
let binders binder =
  assert (String.length binder = 32);
  W.vec16 (W.vec8 [ binder ])

let binders_length = 2 + 1 + 32

(* ---- encoders: each message is one list of parts ------------------------ *)

(* The OpenSSL s_client CH also carries SNI, EC point formats, session
   ticket, encrypt-then-mac, extended master secret, PSK modes and
   padding-free framing; modelled with realistic bodies. The extensions
   that are the same bytes in every ClientHello are joined once, here. *)
let constant parts = String.concat "" parts

(* SNI, supported_versions, and the handful of groups the client
   announces, two bytes each *)
let leading_extensions =
  constant
    (extension 0 (W.vec16 ("\x00" :: W.vec16 [ "server.pqtls.example" ]))
    @ extension 43 (W.vec8 [ "\x03\x04" ])
    @ extension 10 (W.vec16 (List.init 12 (fun i -> u16 (0x0100 + i)))))

let sig_algs_extension n =
  constant (extension 13 (W.vec16 (List.init n (fun i -> u16 (0x0800 + i)))))

let min_sig_algs = 17
let default_sig_algs_extension = sig_algs_extension min_sig_algs

(* psk_key_exchange_modes (psk_dhe_ke only, section 4.2.9), then EMS,
   EtM and record size limit with fixed small bodies. The legacy
   session_ticket (35) stub is only advertised on full handshakes:
   offering a real TLS 1.3 PSK alongside a fake empty ticket body would
   be a wire lie. *)
let trailing_extensions ~full =
  constant
    (extension 45 (W.vec8 [ "\x01" ])
    @ (if full then extension 35 [] else [])
    @ extension 23 [] @ extension 22 [] @ extension 28 [ "\x40\x01" ])

let full_trailing_extensions = trailing_extensions ~full:true
let resumed_trailing_extensions = trailing_extensions ~full:false

let client_extensions ch =
  let sig_algs =
    let n = List.length ch.sig_algs in
    if n <= min_sig_algs then default_sig_algs_extension
    else sig_algs_extension n
  in
  let key_share =
    extension 51 (W.vec16 (u16 0x0199 :: W.vec16 [ ch.key_share ]))
  in
  let trailing =
    match ch.psk_offer with
    | None -> full_trailing_extensions
    | Some _ -> resumed_trailing_extensions
  in
  (* group and algorithm names ride in a private extension so the peer
     can resolve the exact algorithm without a numeric registry *)
  let names =
    extension 0xfd00
      (W.vec8 [ ch.group ] @ W.vec8 [ String.concat "," ch.sig_algs ])
  in
  let early_data = if ch.early_data then extension 42 [] else [] in
  (* pre_shared_key MUST be the last extension (section 4.2.11): the
     binder MAC covers everything before it *)
  let pre_shared_key =
    match ch.psk_offer with
    | None -> []
    | Some p ->
      let identity = W.vec16 [ p.psk_identity ] @ [ u32 p.psk_obfuscated_age ] in
      extension 41 (W.vec16 identity @ binders p.psk_binder)
  in
  List.concat
    [ [ leading_extensions; sig_algs ]; key_share; [ trailing ]; names;
      early_data; pre_shared_key ]

let encode_client_hello ch =
  W.handshake HT.Client_hello
    ("\x03\x03" :: ch.random :: W.vec8 [ ch.session_id ]
    @ W.vec16 [ cipher_suites ]
    @ W.vec8 [ "\x00" ] (* null compression *)
    @ W.vec16 (client_extensions ch))

(* the binder transcript: the ClientHello as sent, minus the binders
   list that closes it (section 4.2.11.2) *)
let truncated_client_hello msg =
  String.sub msg 0 (String.length msg - binders_length)

let close_client_hello truncated binder =
  String.concat "" (truncated :: binders binder)

let server_extensions sh =
  let supported_versions = extension 43 [ "\x03\x04" ] in
  let key_share = extension 51 (u16 0x0199 :: W.vec16 [ sh.sh_key_share ]) in
  (* pre_shared_key: the accepted identity index (always 0 — one offer) *)
  let psk_ext = if sh.sh_psk_selected then extension 41 [ u16 0 ] else [] in
  let names = extension 0xfd00 (W.vec8 [ sh.sh_group ]) in
  List.concat [ supported_versions; key_share; psk_ext; names ]

let encode_server_hello sh =
  W.handshake HT.Server_hello
    ("\x03\x03" :: sh.sh_random :: W.vec8 [ sh.sh_session_id ]
    @ selected_suite :: "\x00" (* compression *)
      :: W.vec16 (server_extensions sh))

let encode_encrypted_extensions ?(early_data_accepted = false) () =
  (* server name ack + ALPN-free empty extension block; the early_data
     ack (42) when the server accepts the client's 0-RTT offer *)
  let ed = if early_data_accepted then extension 42 [] else [] in
  W.handshake HT.Encrypted_extensions (W.vec16 (extension 0 [] @ ed))

let encode_certificate_chain certs =
  (* certificate_request_context (empty) + one CertificateEntry per
     certificate, leaf first (RFC 8446 section 4.4.2), each carrying an
     empty per-entry extension list *)
  let entry c = W.vec24 (Certificate.encode_parts c) @ W.vec16 [] in
  W.handshake HT.Certificate (W.vec8 [] @ W.vec24 (List.concat_map entry certs))

let encode_certificate_verify cv =
  W.handshake HT.Certificate_verify
    (W.vec8 [ cv.cv_algorithm ] @ W.vec16 [ cv.cv_signature ])

let cv_signed_content ~transcript_hash =
  String.make 64 ' ' ^ "TLS 1.3, server CertificateVerify" ^ "\x00"
  ^ transcript_hash

let encode_new_session_ticket nst =
  let exts =
    if nst.nst_max_early_data > 0 then
      extension 42 [ u32 nst.nst_max_early_data ]
    else []
  in
  W.handshake HT.New_session_ticket
    (u32 nst.nst_lifetime :: u32 nst.nst_age_add :: W.vec8 [ nst.nst_nonce ]
    @ W.vec16 [ nst.nst_ticket ]
    @ W.vec16 exts)

let encode_end_of_early_data () = W.handshake HT.End_of_early_data []

let encode_finished mac = W.handshake HT.Finished [ mac ]

(* ---- decoders: each reads its message in place -------------------------- *)

let handshake_type msg =
  if String.length msg < 4 then raise (W.Decode_error "short handshake message");
  HT.of_byte (Char.code msg.[0])

(* A cursor over the body of [msg], once its type is [ty] ([what] names
   it otherwise) and its header's 24-bit length is the body's. *)
let open_message ty ~what msg =
  if handshake_type msg <> ty then raise (W.Decode_error ("not " ^ what));
  let r = W.Reader.of_string msg in
  ignore (W.Reader.u8 r);
  let body = W.Reader.sub24 r in
  W.Reader.expect_end r;
  body

(* An extension block, read once: each extension's type and a cursor
   over its body, in wire order. There MUST NOT be more than one
   extension of the same type in a block (section 4.2). *)
let extensions r =
  let block = W.Reader.sub16 r in
  let rec go acc =
    if W.Reader.remaining block = 0 then List.rev acc
    else begin
      let ty = W.Reader.u16 block in
      if List.mem_assoc ty acc then
        raise (W.Decode_error (Printf.sprintf "repeated extension %d" ty));
      let body = W.Reader.sub16 block in
      go ((ty, body) :: acc)
    end
  in
  go []

let find exts ty =
  match List.assoc_opt ty exts with
  | Some body -> body
  | None -> raise (W.Decode_error "extension missing")

let decode_psk_offer r =
  let ids = W.Reader.sub16 r in
  let psk_identity = W.Reader.vec16 ids in
  let psk_obfuscated_age = W.Reader.u32 ids in
  W.Reader.expect_end ids;
  let binders = W.Reader.sub16 r in
  let psk_binder = W.Reader.vec8 binders in
  W.Reader.expect_end binders;
  W.Reader.expect_end r;
  { psk_identity; psk_obfuscated_age; psk_binder }

let decode_client_hello msg =
  let r = open_message HT.Client_hello ~what:"a ClientHello" msg in
  let _version = W.Reader.u16 r in
  let random = W.Reader.bytes r 32 in
  let session_id = W.Reader.vec8 r in
  let _suites = W.Reader.sub16 r in
  let _comp = W.Reader.sub8 r in
  let exts = extensions r in
  W.Reader.expect_end r;
  let key_share =
    (* client_shares list wrapper, then the single offered share *)
    let shares = W.Reader.sub16 (find exts 51) in
    let _group = W.Reader.u16 shares in
    W.Reader.vec16 shares
  in
  let names = find exts 0xfd00 in
  let group = W.Reader.vec8 names in
  let sig_algs = String.split_on_char ',' (W.Reader.vec8 names) in
  let psk_offer =
    match List.assoc_opt 41 exts with
    | None -> None
    | Some body ->
      (* receiver-side section 4.2.11 enforcement: pre_shared_key must
         close the extension block *)
      (match List.rev exts with
      | (41, _) :: _ -> ()
      | _ -> raise (W.Decode_error "pre_shared_key is not the last extension"));
      Some (decode_psk_offer body)
  in
  let early_data = List.mem_assoc 42 exts in
  { random; session_id; group; key_share; sig_algs; psk_offer; early_data }

let decode_server_hello msg =
  let r = open_message HT.Server_hello ~what:"a ServerHello" msg in
  let _version = W.Reader.u16 r in
  let sh_random = W.Reader.bytes r 32 in
  let sh_session_id = W.Reader.vec8 r in
  let _suite = W.Reader.u16 r in
  let _comp = W.Reader.u8 r in
  let exts = extensions r in
  W.Reader.expect_end r;
  let sh_key_share =
    let ks = find exts 51 in
    let _group = W.Reader.u16 ks in
    W.Reader.vec16 ks
  in
  let sh_group = W.Reader.vec8 (find exts 0xfd00) in
  let sh_psk_selected = List.mem_assoc 41 exts in
  { sh_random; sh_session_id; sh_group; sh_key_share; sh_psk_selected }

let ee_early_data_accepted msg =
  let r =
    open_message HT.Encrypted_extensions ~what:"an EncryptedExtensions" msg
  in
  let exts = extensions r in
  W.Reader.expect_end r;
  List.mem_assoc 42 exts

let decode_certificate_chain msg =
  let r = open_message HT.Certificate ~what:"a Certificate" msg in
  let _ctx = W.Reader.sub8 r in
  let entries = W.Reader.sub24 r in
  W.Reader.expect_end r;
  let rec entry_loop acc =
    if W.Reader.remaining entries = 0 then List.rev acc
    else
      let cert = Certificate.decode (W.Reader.sub24 entries) in
      let _exts = W.Reader.sub16 entries in
      entry_loop (cert :: acc)
  in
  match entry_loop [] with
  | [] -> raise (W.Decode_error "Certificate: empty certificate_list")
  | certs -> certs

let decode_certificate_verify msg =
  let r = open_message HT.Certificate_verify ~what:"a CertificateVerify" msg in
  let cv_algorithm = W.Reader.vec8 r in
  let cv_signature = W.Reader.vec16 r in
  W.Reader.expect_end r;
  { cv_algorithm; cv_signature }

let decode_new_session_ticket msg =
  let r = open_message HT.New_session_ticket ~what:"a NewSessionTicket" msg in
  let nst_lifetime = W.Reader.u32 r in
  let nst_age_add = W.Reader.u32 r in
  let nst_nonce = W.Reader.vec8 r in
  let nst_ticket = W.Reader.vec16 r in
  let exts = extensions r in
  W.Reader.expect_end r;
  let nst_max_early_data =
    match List.assoc_opt 42 exts with
    | None -> 0
    | Some er ->
      let v = W.Reader.u32 er in
      W.Reader.expect_end er;
      v
  in
  { nst_lifetime; nst_age_add; nst_nonce; nst_ticket; nst_max_early_data }

let decode_finished msg =
  let r = open_message HT.Finished ~what:"a Finished" msg in
  W.Reader.bytes r (W.Reader.remaining r)
