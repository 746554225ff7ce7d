type secrets = {
  client_handshake_traffic : string;
  server_handshake_traffic : string;
  master : string;
}

let digest_size = 32
let zeros = String.make digest_size '\000'
let empty_hash = Crypto.Sha256.digest ""

(* The schedule's three derivations: HKDF-Extract, HKDF-Expand-Label and
   the HMAC of a Finished or binder. Each runs through a memo, tagged
   with the derivation and keyed by its inputs: the two endpoints of a
   connection pass the one they share, so whichever derives a value
   second takes the first's output. A derivation that callers outside a
   connection make too takes [?memo], and leaving it out gives a fresh
   memo that never hits. *)

let extract memo ~salt ikm =
  Crypto.Memo.once memo ~tag:"extract" [ salt; ikm ] digest_size (fun () ->
      Crypto.Hkdf.extract ~salt ~ikm)

let hkdf_expand_label ?(memo = Crypto.Memo.create ()) ~secret ~label ~context
    len =
  Crypto.Memo.once memo ~tag:"expand-label" [ secret; label; context ] len
    (fun () ->
      let hkdf_label =
        String.concat ""
          (Crypto.Bytesx.u16_be len :: Wire.vec8 [ "tls13 "; label ]
          @ Wire.vec8 [ context ])
      in
      Crypto.Hkdf.expand ~prk:secret ~info:hkdf_label len)

let derive_secret memo ~secret ~label transcript_hash =
  hkdf_expand_label ~memo ~secret ~label ~context:transcript_hash digest_size

(* RFC 8446 section 4.4.4: HMAC under the finished key of [base_key]. A
   PSK binder is computed the same way (section 4.2.11.2). *)
let verify_data ~memo ~base_key transcript_hash =
  let key =
    hkdf_expand_label ~memo ~secret:base_key ~label:"finished" ~context:""
      digest_size
  in
  Crypto.Memo.once memo ~tag:"hmac" [ key; transcript_hash ] digest_size
    (fun () -> Crypto.Hmac.hmac ~key transcript_hash)

(* Without a PSK the early secret extracts from all-zero input, so it and
   its "derived" secret are the same in every handshake. *)
let no_psk_early_secret = Crypto.Hkdf.extract ~salt:"" ~ikm:zeros

let no_psk_derived =
  derive_secret (Crypto.Memo.create ()) ~secret:no_psk_early_secret
    ~label:"derived" empty_hash

(* The early-secret extract of the RFC's diagram: [ikm] is the PSK when
   resuming and all-zero otherwise. *)
let early_secret ?(memo = Crypto.Memo.create ()) ?psk () =
  Option.fold ~none:no_psk_early_secret ~some:(extract memo ~salt:"") psk

let binder_key ~memo ~early_secret =
  (* resumption PSKs only: the "res binder" branch of section 7.1 *)
  derive_secret memo ~secret:early_secret ~label:"res binder" empty_hash

let binder_mac ~memo ~binder_key ~truncated_transcript_hash =
  (* over the transcript of the ClientHello truncated before the binders *)
  verify_data ~memo ~base_key:binder_key truncated_transcript_hash

let client_early_traffic ~memo ~early_secret ~client_hello_hash =
  derive_secret memo ~secret:early_secret ~label:"c e traffic"
    client_hello_hash

let handshake_secrets ?(memo = Crypto.Memo.create ()) ?psk ~shared_secret
    ~hello_transcript_hash () =
  let derived =
    Option.fold ~none:no_psk_derived
      ~some:(fun psk ->
        derive_secret memo ~secret:(early_secret ~memo ~psk ())
          ~label:"derived" empty_hash)
      psk
  in
  let hs = extract memo ~salt:derived shared_secret in
  let client_handshake_traffic =
    derive_secret memo ~secret:hs ~label:"c hs traffic" hello_transcript_hash
  and server_handshake_traffic =
    derive_secret memo ~secret:hs ~label:"s hs traffic" hello_transcript_hash
  in
  let hs_derived = derive_secret memo ~secret:hs ~label:"derived" empty_hash in
  let master = extract memo ~salt:hs_derived zeros in
  { client_handshake_traffic; server_handshake_traffic; master }

type traffic_keys = { key : string; iv : string }

let traffic_keys ?(memo = Crypto.Memo.create ()) secret =
  { key = hkdf_expand_label ~memo ~secret ~label:"key" ~context:"" 16;
    iv = hkdf_expand_label ~memo ~secret ~label:"iv" ~context:"" 12 }

let server_application_traffic ~memo ~master finished_transcript_hash =
  derive_secret memo ~secret:master ~label:"s ap traffic"
    finished_transcript_hash

(* the Finished MAC and both application secrets, for callers outside a
   connection *)
let finished_mac ~traffic_secret ~transcript_hash =
  verify_data ~memo:(Crypto.Memo.create ()) ~base_key:traffic_secret
    transcript_hash

let application_secrets ~master ~finished_transcript_hash =
  let memo = Crypto.Memo.create () in
  ( derive_secret memo ~secret:master ~label:"c ap traffic"
      finished_transcript_hash,
    server_application_traffic ~memo ~master finished_transcript_hash )

let resumption_master ~memo ~master ~finished_transcript_hash =
  (* over the transcript including the client Finished (section 7.1) *)
  derive_secret memo ~secret:master ~label:"res master"
    finished_transcript_hash

let resumption_psk ~memo ~resumption_master ~ticket_nonce =
  (* PSK associated with one NewSessionTicket (section 4.6.1) *)
  hkdf_expand_label ~memo ~secret:resumption_master ~label:"resumption"
    ~context:ticket_nonce digest_size
