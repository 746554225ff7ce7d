module K = Key_schedule
module M = Messages
module HT = Wire.Handshake_type

type result = {
  client_finished_at : float;
  server_finished_at : float;
  client_tcp : Netsim.Tcp.t;
  server_tcp : Netsim.Tcp.t;
  resumed : bool;
  early_data_bytes : int;
  memo_left : int;
}

type session = {
  psk : string;  (* the resumption PSK (client side of section 4.6.1) *)
  ticket : string;  (* the opaque STEK-sealed server ticket *)
  age_add : int;
  max_early_data : int;
}

let charge_n host (op : Pqc.Costs.op) n k =
  Netsim.Host.charge host ~op:op.Pqc.Costs.label
    ~ms:(op.Pqc.Costs.ms *. float_of_int n)
    ~lib:(Pqc.Costs.lib_name op.Pqc.Costs.lib) ~k

let charge host op k = charge_n host op 1 k

let ccs_record = Wire.record Wire.Content_type.Change_cipher_spec "\x01"

let make_record ~memo cfg traffic_secret =
  if cfg.Config.null_records then Record.create_null ()
  else Record.create (K.traffic_keys ~memo traffic_secret)

(* 0-RTT protection, the same on both sides: the client early traffic
   keys, derived over the ClientHello alone *)
let early_record cfg ~memo ~early_secret ch_msg =
  make_record ~memo cfg
    (K.client_early_traffic ~memo ~early_secret
       ~client_hello_hash:(Crypto.Sha256.digest ch_msg))

(* ---- session tickets (stateless STEK sealing) --------------------------- *)

(* Tickets are sealed under a Session-Ticket-Encryption-Key the server
   never shares: the record machinery doubles as the AEAD so mocked runs
   keep exact ticket sizes (Record.create_null is size-preserving). The
   plaintext is the PSK plus fixed padding, so every ticket has the same
   realistic ~150 B wire footprint. *)
let ticket_padding = 96
let ticket_lifetime_s = 7200
let default_max_early_data = 16384
let early_data_size = 256

let stek_record ~config ~ticket_key =
  let secret = Crypto.Hkdf.extract ~salt:"pqtls stek" ~ikm:ticket_key in
  make_record ~memo:(Crypto.Memo.create ()) config secret

let seal_ticket ~config ~ticket_key psk =
  Record.seal
    (stek_record ~config ~ticket_key)
    Wire.Content_type.Application_data
    (psk ^ String.make ticket_padding '\000')

let open_ticket ~config ~ticket_key ticket =
  if String.length ticket < 5 then raise (Wire.Decode_error "short ticket");
  let body = String.sub ticket 5 (String.length ticket - 5) in
  match
    (Record.open_ (stek_record ~config ~ticket_key) body
    [@lint.declassify
      "AEAD open on an attacker-supplied ticket: the success bit and \
       plaintext length are inherently wire-observable (the server \
       either resumes or falls back), the tag check inside Aes_gcm is \
       constant-time, and the failure arm raises a constant payload — \
       no key bytes leave this match"])
  with
  | Some (Wire.Content_type.Application_data, pt)
    when String.length pt >= K.digest_size ->
    String.sub pt 0 K.digest_size
  | _ -> raise (Wire.Decode_error "ticket decryption failed")

(* HelloRetryRequest: a ServerHello whose random is the RFC 8446 magic *)
let hrr_random =
  Crypto.Bytesx.of_hex
    "cf21ad74e59a6111be1d8c021e65b891c2a211167abb8c5e079e09e2c8a8339c"

let encode_hrr ~session_id ~group =
  M.encode_server_hello
    { M.sh_random = hrr_random; sh_session_id = session_id; sh_group = group;
      sh_key_share = ""; sh_psk_selected = false }

let is_hrr (sh : M.server_hello) =
  Crypto.Bytesx.equal_ct sh.M.sh_random hrr_random

(* ---- per-peer plumbing -------------------------------------------------- *)

type peer = {
  host : Netsim.Host.t;
  tcp : Netsim.Tcp.t;
  inbound : Codec.Inbound.t;
  transcript : Transcript.t;
  memo : Crypto.Memo.t;  (* the connection's, shared with the other peer *)
  mutable busy : bool;
  mutable done_ : bool;
  mutable dispatch : peer -> string -> unit;
  mutable on_app : peer -> string -> unit;
}

let rec make_peer host tcp transcript memo =
  let p =
    { host; tcp; inbound = Codec.Inbound.create (); transcript; memo;
      busy = false; done_ = false;
      dispatch = (fun _ _ -> ());
      on_app =
        (fun _ _ -> raise (Wire.Decode_error "unexpected application data")) }
  in
  Netsim.Tcp.on_receive tcp (fun bytes ->
      Codec.Inbound.feed p.inbound bytes;
      step p);
  p

and step p =
  if (not p.busy) && not p.done_ then begin
    match Codec.Inbound.next p.inbound with
    | Codec.Inbound.Need_more_data -> ()
    | Codec.Inbound.Change_cipher_spec -> step p
    | Codec.Inbound.Application_data frag ->
      (* 0-RTT early data: delivered through the same busy-gated CPS
         path as handshake messages so CPU serialization holds *)
      p.busy <- true;
      if Trace.Sink.enabled () then
        Trace.Sink.begin_span
          ~track:(Netsim.Host.name p.host)
          ~cat:"message" ~name:"0RTT"
          (Netsim.Host.now p.host);
      p.on_app p frag
    | Codec.Inbound.Handshake_message msg ->
      p.busy <- true;
      (* a "message" span covers the whole dispatch of one inbound
         handshake message, CPU charges included: it opens here and the
         matching [finish_step] closes it (the state machines are CPS,
         so dispatch completion is exactly the finish_step call) *)
      if Trace.Sink.enabled () then
        Trace.Sink.begin_span
          ~track:(Netsim.Host.name p.host)
          ~cat:"message"
          ~name:(HT.label (M.handshake_type msg))
          (Netsim.Host.now p.host);
      p.dispatch p msg
  end

let finish_step p =
  if Trace.Sink.enabled () then
    Trace.Sink.end_span
      ~track:(Netsim.Host.name p.host)
      (Netsim.Host.now p.host);
  p.busy <- false;
  step p

(* RFC 8446 section 4.2.11.2, for the client building its offer and the
   server checking it: [k ~early_secret binder] gets the early secret and
   the binder MAC over [truncated], the ClientHello bytes before its
   binders list *)
let psk_binder (p : peer) ~psk truncated k =
  charge_n p.host Pqc.Costs.key_schedule_derive 3 @@ fun () ->
  let memo = p.memo in
  let early_secret = K.early_secret ~memo ~psk () in
  let binder_key = K.binder_key ~memo ~early_secret in
  k ~early_secret
    (K.binder_mac ~memo ~binder_key
       ~truncated_transcript_hash:(Crypto.Sha256.digest truncated))

(* Section 4.6.1, the same on both sides: the PSK a NewSessionTicket
   binds, under the res master over the transcript through the client
   Finished *)
let ticket_psk (p : peer) (secrets : K.secrets) ~nonce =
  K.resumption_psk ~memo:p.memo
    ~resumption_master:
      (K.resumption_master ~memo:p.memo ~master:secrets.K.master
         ~finished_transcript_hash:(Transcript.current p.transcript))
    ~ticket_nonce:nonce

(* this side's handshake is over: stop dispatching, then report *)
let complete p on_done =
  p.done_ <- true;
  Codec.Inbound.release p.inbound;
  on_done ();
  finish_step p

(* RFC 8446 4.4.1: after an HRR, CH1 is replaced in the transcript by a
   synthetic message_hash message *)
let restart_transcript_after_ch1 (p : peer) hrr_msg =
  let ch1_hash = Transcript.current p.transcript in
  Transcript.reset p.transcript;
  Transcript.add p.transcript
    ("\xfe\x00\x00" ^ String.make 1 (Char.chr 32) ^ ch1_hash);
  Transcript.add p.transcript hrr_msg

(* a plaintext handshake message straight to TCP, and into the transcript *)
let send_plain (p : peer) label msg =
  Transcript.add p.transcript msg;
  Netsim.Tcp.write p.tcp ~marks:[ (0, label) ] (Codec.fragment_plaintext msg)

(* ---- outgoing flight buffer (models the OpenSSL BIO buffer) ------------ *)

type flight = {
  cfg : Config.t;
  peer : peer;
  mutable pending : string list;  (* newest first, handed to TCP as parts *)
  mutable pending_bytes : int;
  mutable fmarks : (int * string) list;
}

let make_flight cfg peer =
  { cfg; peer; pending = []; pending_bytes = 0; fmarks = [] }

let flight_flush f =
  if f.pending_bytes > 0 then begin
    Netsim.Tcp.write_parts f.peer.tcp ~marks:(List.rev f.fmarks)
      (List.rev f.pending);
    f.pending <- [];
    f.pending_bytes <- 0;
    f.fmarks <- []
  end

let flight_append f ?label records =
  (match label with
  | Some l -> f.fmarks <- (f.pending_bytes, l) :: f.fmarks
  | None -> ());
  f.pending <- records :: f.pending;
  f.pending_bytes <- f.pending_bytes + String.length records

(* Default-buffered mode: adding data that would overflow the BIO buffer
   first flushes what is pending; oversized chunks then go straight out. *)
let flight_emit f ?label records =
  match f.cfg.Config.buffering with
  | Config.Optimized_push -> flight_append f ?label records
  | Config.Default_buffered ->
    let len = String.length records in
    if f.pending_bytes + len > f.cfg.Config.buffer_limit then flight_flush f;
    if len > f.cfg.Config.buffer_limit then
      Netsim.Tcp.write f.peer.tcp
        ~marks:(match label with Some l -> [ (0, l) ] | None -> [])
        records
    else flight_append f ?label records

(* flush point honoured only by the optimized server *)
let flight_push_point f =
  match f.cfg.Config.buffering with
  | Config.Optimized_push -> flight_flush f
  | Config.Default_buffered -> ()

(* ---- server ------------------------------------------------------------- *)

let kem_costs cfg = Pqc.Costs.kem cfg.Config.kem.Pqc.Kem.name
let sig_costs cfg = Pqc.Costs.sig_ cfg.Config.sig_alg.Pqc.Sigalg.name

(* RFC 8446 section 4.2.8: a key share whose length is wrong for the
   negotiated group is a decode error, caught before the KEM is charged
   or run *)
let check_share_length ~what ~expected share =
  if String.length share <> expected then
    raise (Wire.Decode_error (what ^ " key share has the wrong length"))

(* per-fragment AEAD cost, scaled to the fragment size *)
let aead_cost len =
  { Pqc.Costs.aead_per_kilobyte with
    Pqc.Costs.ms =
      Pqc.Costs.aead_per_kilobyte.Pqc.Costs.ms
      *. (float_of_int len /. 1024.) }

(* What the server knows once its flight is out: the handshake secrets
   and the transcript hash at its Finished, which the application
   traffic secrets are derived over. *)
type keys = { secrets : K.secrets; sfin_hash : string }

type server_state =
  | S_client_hello  (* also after an HRR, awaiting CH2 *)
  | S_end_of_early_data of keys  (* 0-RTT accepted *)
  | S_client_finished of keys

type server_ctx = {
  s_cfg : Config.t;
  s_creds : Credentials.t;
  s_rng : Crypto.Drbg.t;
  s_issue_ticket : bool;
  s_ticket_key : string;
  s_early_bytes : int ref;  (* 0-RTT application bytes accepted *)
  mutable s_state : server_state;
  s_on_done : unit -> unit;
}

(* The client's Finished arrives under its handshake traffic keys. *)
let server_await_finished ctx (p : peer) keys =
  Codec.Inbound.enable_decryption p.inbound
    (make_record ~memo:p.memo ctx.s_cfg
       keys.secrets.K.client_handshake_traffic);
  ctx.s_state <- S_client_finished keys;
  finish_step p

(* 0-RTT records arrive under the early keys until EndOfEarlyData *)
let server_await_early_data ctx (p : peer) ~early_secret ch_msg keys =
  charge p.host Pqc.Costs.key_schedule_derive @@ fun () ->
  Codec.Inbound.enable_decryption p.inbound
    (early_record ctx.s_cfg ~memo:p.memo ~early_secret ch_msg);
  p.on_app <-
    (fun p frag ->
      charge p.host (aead_cost (String.length frag)) @@ fun () ->
      ctx.s_early_bytes := !(ctx.s_early_bytes) + String.length frag;
      finish_step p);
  ctx.s_state <- S_end_of_early_data keys;
  finish_step p

(* The server's first flight, full (section 2.1) or psk_dhe_ke (section
   2.2), told apart by the public PSK offer: ServerHello and the
   compatibility CCS in the clear, then EncryptedExtensions, Certificate
   and CertificateVerify (full handshakes only) and Finished under the
   server handshake keys. [k] runs once the flight is flushed. *)
let server_flight ctx (p : peer) msg (ch : M.client_hello) ?psk k =
  let cfg = ctx.s_cfg in
  let flight = make_flight cfg p in
  let resumed = Option.is_some ch.M.psk_offer in
  check_share_length ~what:"client"
    ~expected:cfg.Config.kem.Pqc.Kem.public_key_bytes ch.M.key_share;
  charge p.host (kem_costs cfg).Pqc.Costs.kem_encaps @@ fun () ->
  let ct, shared_secret = cfg.Config.kem.Pqc.Kem.encaps ctx.s_rng ch.M.key_share in
  Transcript.add p.transcript msg;
  let sh =
    M.encode_server_hello
      { M.sh_random = Crypto.Drbg.generate ctx.s_rng 32;
        sh_session_id = ch.M.session_id;
        sh_group = cfg.Config.kem.Pqc.Kem.name;
        sh_key_share = ct;
        sh_psk_selected = resumed }
  in
  Transcript.add p.transcript sh;
  charge p.host Pqc.Costs.build_server_flight @@ fun () ->
  charge_n p.host Pqc.Costs.key_schedule_derive 4 @@ fun () ->
  let secrets =
    K.handshake_secrets ~memo:p.memo ?psk ~shared_secret
      ~hello_transcript_hash:(Transcript.current p.transcript) ()
  in
  flight_emit flight ~label:"SH" (Codec.fragment_plaintext sh);
  flight_emit flight ccs_record;
  let write =
    make_record ~memo:p.memo cfg secrets.K.server_handshake_traffic
  in
  let send label m =
    Transcript.add p.transcript m;
    flight_emit flight ~label (Codec.fragment_encrypted write m)
  in
  flight_push_point flight;
  (* EncryptedExtensions + Certificate do not wait for the signature *)
  send "EE"
    (M.encode_encrypted_extensions
       ~early_data_accepted:(resumed && ch.M.early_data) ());
  let authenticate k =
    if resumed then k ()
    else begin
      send "CERT" ctx.s_creds.Credentials.certificate;
      flight_push_point flight;
      charge p.host (sig_costs cfg).Pqc.Costs.sign @@ fun () ->
      let cv_content =
        M.cv_signed_content ~transcript_hash:(Transcript.current p.transcript)
      in
      send "CV"
        (M.encode_certificate_verify
           { M.cv_algorithm = cfg.Config.sig_alg.Pqc.Sigalg.name;
             cv_signature =
               cfg.Config.sig_alg.Pqc.Sigalg.sign ctx.s_rng
                 ~secret:ctx.s_creds.Credentials.server_key.Pqc.Sigalg.secret
                 cv_content });
      k ()
    end
  in
  authenticate @@ fun () ->
  charge p.host Pqc.Costs.key_schedule_derive @@ fun () ->
  send "FIN"
    (M.encode_finished
       (K.verify_data ~memo:p.memo
          ~base_key:secrets.K.server_handshake_traffic
          (Transcript.current p.transcript)));
  let sfin_hash = Transcript.current p.transcript in
  flight_flush flight;
  k { secrets; sfin_hash }

(* S_client_hello: resume on a binder-valid PSK offer, ask for the right
   group with an HRR, or run the full handshake *)
let server_on_client_hello ctx (p : peer) msg =
  let cfg = ctx.s_cfg in
  let parse_cost =
    { Pqc.Costs.parse_client_hello with
      Pqc.Costs.ms =
        Pqc.Costs.parse_client_hello.Pqc.Costs.ms
        +. (sig_costs cfg).Pqc.Costs.ch_overhead }
  in
  charge p.host parse_cost @@ fun () ->
  let ch = M.decode_client_hello msg in
  match ch.M.psk_offer with
  | Some offer ->
    let psk =
      open_ticket ~config:cfg ~ticket_key:ctx.s_ticket_key offer.M.psk_identity
    in
    psk_binder p ~psk (M.truncated_client_hello msg)
    @@ fun ~early_secret binder ->
    if not (Crypto.Bytesx.equal_ct offer.M.psk_binder binder) then
      raise (Wire.Decode_error "PSK binder mismatch");
    server_flight ctx p msg ch ~psk
      (if ch.M.early_data then server_await_early_data ctx p ~early_secret msg
       else server_await_finished ctx p)
  | None when ch.M.group <> cfg.Config.kem.Pqc.Kem.name ->
    (* wrong key-share guess: answer with HelloRetryRequest (2-RTT path) *)
    Transcript.add p.transcript msg;
    let hrr = encode_hrr ~session_id:ch.M.session_id
                ~group:cfg.Config.kem.Pqc.Kem.name in
    restart_transcript_after_ch1 p hrr;
    charge p.host Pqc.Costs.build_server_flight @@ fun () ->
    Netsim.Tcp.write p.tcp ~marks:[ (0, "HRR") ] (Codec.fragment_plaintext hrr);
    finish_step p
  | None -> server_flight ctx p msg ch (server_await_finished ctx p)

let server_on_client_finished ctx (p : peer) msg { secrets; sfin_hash } =
  charge p.host Pqc.Costs.key_schedule_derive @@ fun () ->
  let expected =
    K.verify_data ~memo:p.memo ~base_key:secrets.K.client_handshake_traffic
      (Transcript.current p.transcript)
  in
  if not (Crypto.Bytesx.equal_ct (M.decode_finished msg) expected) then
    raise (Wire.Decode_error "client Finished MAC mismatch");
  Transcript.add p.transcript msg;
  if ctx.s_issue_ticket then begin
    (* post-handshake NewSessionTicket under the server application
       traffic keys; its PSK rides STEK-sealed so the server stays
       stateless. The server has finished before the ticket goes out. *)
    charge_n p.host Pqc.Costs.key_schedule_derive 3 @@ fun () ->
    let s_app =
      K.server_application_traffic ~memo:p.memo ~master:secrets.K.master
        sfin_hash
    in
    let nonce = "\x00" in
    let psk = ticket_psk p secrets ~nonce in
    let nst =
      M.encode_new_session_ticket
        { M.nst_lifetime = ticket_lifetime_s;
          nst_age_add =
            Crypto.Bytesx.get_u32_be (Crypto.Drbg.generate ctx.s_rng 4) 0;
          nst_nonce = nonce;
          nst_ticket =
            seal_ticket ~config:ctx.s_cfg ~ticket_key:ctx.s_ticket_key psk;
          nst_max_early_data = default_max_early_data }
    in
    let crypt = make_record ~memo:p.memo ctx.s_cfg s_app in
    Netsim.Tcp.write p.tcp ~marks:[ (0, "NST") ]
      (Codec.fragment_encrypted crypt nst)
  end;
  complete p ctx.s_on_done

let server_dispatch ctx p msg =
  match ctx.s_state with
  | S_client_hello -> server_on_client_hello ctx p msg
  | S_end_of_early_data keys ->
    if M.handshake_type msg <> HT.End_of_early_data then
      raise (Wire.Decode_error "expected EndOfEarlyData");
    (* the client switches to its handshake keys after EndOfEarlyData *)
    Transcript.add p.transcript msg;
    server_await_finished ctx p keys
  | S_client_finished keys -> server_on_client_finished ctx p msg keys

(* ---- client ------------------------------------------------------------- *)

type client_state =
  | C_server_hello of { keypair : Pqc.Kem.keypair option; retried : bool }
      (* [keypair] is [None] while the only share sent was a wrong guess;
         [retried] once an HRR was answered *)
  | C_encrypted_extensions of K.secrets
  | C_certificate of K.secrets
  | C_certificate_verify of K.secrets * Certificate.t  (* and the leaf *)
  | C_finished of K.secrets
  | C_ticket of K.secrets

type client_ctx = {
  c_cfg : Config.t;
  c_rng : Crypto.Drbg.t;
  c_creds : Credentials.t; (* the trust store: see Credentials.check *)
  c_resume : session option;
  c_early_data : bool;
  c_await_ticket : bool;
  c_on_ticket : session -> unit;
  mutable c_session_id : string;
  mutable c_early_write : Record.t option;  (* 0-RTT seal state, for EOED *)
  mutable c_state : client_state;
  c_on_done : unit -> unit;
}

(* a ClientHello without a PSK offer, under a fresh random *)
let plain_hello ctx ~group ~share =
  { M.random = Crypto.Drbg.generate ctx.c_rng 32;
    session_id = ctx.c_session_id;
    group;
    key_share = share;
    sig_algs = [ ctx.c_cfg.Config.sig_alg.Pqc.Sigalg.name ];
    psk_offer = None;
    early_data = false }

(* C_init: once TCP is up, the ClientHello with the pre-computed share;
   when resuming, a psk_dhe_ke offer encoded once with a placeholder
   binder, truncated before its binders list and closed with the binder
   over those bytes (section 4.2.11.2), then any 0-RTT data *)
let client_hello ctx (p : peer) ~group ~share =
  charge p.host Pqc.Costs.build_client_finished @@ fun () ->
  ctx.c_session_id <- Crypto.Drbg.generate ctx.c_rng 32;
  let base = plain_hello ctx ~group ~share in
  match ctx.c_resume with
  | None -> send_plain p "CH" (M.encode_client_hello base)
  | Some s ->
    let truncated =
      M.truncated_client_hello
        (M.encode_client_hello
           { base with
             M.psk_offer =
               Some
                 { M.psk_identity = s.ticket;
                   psk_obfuscated_age = s.age_add;
                   psk_binder = String.make 32 '\000' };
             early_data = ctx.c_early_data })
    in
    psk_binder p ~psk:s.psk truncated @@ fun ~early_secret binder ->
    let ch = M.close_client_hello truncated binder in
    send_plain p "CH" ch;
    if ctx.c_early_data then begin
      charge p.host Pqc.Costs.key_schedule_derive @@ fun () ->
      let crypt = early_record ctx.c_cfg ~memo:p.memo ~early_secret ch in
      ctx.c_early_write <- Some crypt;
      let payload = String.make (min early_data_size s.max_early_data) 'e' in
      charge p.host (aead_cost (String.length payload)) @@ fun () ->
      Netsim.Tcp.write p.tcp ~marks:[ (0, "0RTT") ]
        (Codec.fragment_app crypt payload)
    end

(* HRR: the transcript restarts, and CH2 carries a share for the group
   the server asked for. A second HRR is a protocol error. *)
let client_on_hello_retry ctx (p : peer) msg ~retried =
  if retried then raise (Wire.Decode_error "second HelloRetryRequest");
  let cfg = ctx.c_cfg in
  charge p.host Pqc.Costs.parse_server_flight @@ fun () ->
  restart_transcript_after_ch1 p msg;
  charge p.host (kem_costs cfg).Pqc.Costs.kem_keygen @@ fun () ->
  let keypair = cfg.Config.kem.Pqc.Kem.keygen ctx.c_rng in
  ctx.c_state <- C_server_hello { keypair = Some keypair; retried = true };
  send_plain p "CH2"
    (M.encode_client_hello
       (plain_hello ctx ~group:cfg.Config.kem.Pqc.Kem.name
          ~share:keypair.Pqc.Kem.public));
  finish_step p

let client_on_server_hello ctx (p : peer) msg (sh : M.server_hello) keypair =
  let cfg = ctx.c_cfg in
  charge p.host Pqc.Costs.parse_server_flight @@ fun () ->
  (if ctx.c_resume <> None && not sh.M.sh_psk_selected then
     (* a real client would fall back to a full handshake; our server
        always accepts a binder-valid offer, so this is fail-closed *)
     raise (Wire.Decode_error "server ignored the PSK offer"));
  check_share_length ~what:"server"
    ~expected:cfg.Config.kem.Pqc.Kem.ciphertext_bytes sh.M.sh_key_share;
  charge p.host (kem_costs cfg).Pqc.Costs.kem_decaps @@ fun () ->
  let shared_secret =
    cfg.Config.kem.Pqc.Kem.decaps keypair.Pqc.Kem.secret sh.M.sh_key_share
  in
  Transcript.add p.transcript msg;
  charge_n p.host Pqc.Costs.key_schedule_derive 4 @@ fun () ->
  let secrets =
    K.handshake_secrets ~memo:p.memo
      ?psk:(Option.map (fun s -> s.psk) ctx.c_resume)
      ~shared_secret
      ~hello_transcript_hash:(Transcript.current p.transcript) ()
  in
  Codec.Inbound.enable_decryption p.inbound
    (make_record ~memo:p.memo cfg secrets.K.server_handshake_traffic);
  ctx.c_state <- C_encrypted_extensions secrets;
  finish_step p

let client_on_encrypted_extensions ctx (p : peer) msg secrets =
  Transcript.add p.transcript msg;
  (if ctx.c_early_data && not (M.ee_early_data_accepted msg) then
     raise (Wire.Decode_error "server rejected early data"));
  (* a resumed server flight carries no Certificate/CertificateVerify *)
  ctx.c_state <-
    (if ctx.c_resume <> None then C_finished secrets
     else C_certificate secrets);
  finish_step p

let client_on_certificate ctx (p : peer) msg secrets =
  let certs, verdict = Credentials.check ctx.c_creds msg in
  (* PKI check: the received chain up to the trust anchor, one
     verification per level, each charged at its issuing SA's cost so
     the Table 3 ledger sees the per-level placement *)
  let rec charge_levels issuers k =
    match issuers with
    | [] -> k ()
    | (iss : Pqc.Sigalg.t) :: rest ->
      charge p.host (Pqc.Costs.sig_ iss.Pqc.Sigalg.name).Pqc.Costs.verify
      @@ fun () -> charge_levels rest k
  in
  charge_levels (Chain.issuer_algs ctx.c_creds.Credentials.chain) @@ fun () ->
  if not (verdict ()) then
    raise (Wire.Decode_error "certificate chain verification failed");
  Transcript.add p.transcript msg;
  ctx.c_state <- C_certificate_verify (secrets, List.hd certs);
  finish_step p

let client_on_certificate_verify ctx (p : peer) msg secrets cert =
  let cfg = ctx.c_cfg in
  let cv = M.decode_certificate_verify msg in
  let content =
    M.cv_signed_content ~transcript_hash:(Transcript.current p.transcript)
  in
  charge p.host (sig_costs cfg).Pqc.Costs.verify @@ fun () ->
  if
    not
      (cfg.Config.sig_alg.Pqc.Sigalg.verify ~public:cert.Certificate.public_key
         ~msg:content cv.M.cv_signature)
  then raise (Wire.Decode_error "CertificateVerify signature invalid");
  Transcript.add p.transcript msg;
  ctx.c_state <- C_finished secrets;
  finish_step p

let client_on_finished ctx (p : peer) msg secrets =
  let cfg = ctx.c_cfg in
  charge p.host Pqc.Costs.key_schedule_derive @@ fun () ->
  let expected =
    K.verify_data ~memo:p.memo ~base_key:secrets.K.server_handshake_traffic
      (Transcript.current p.transcript)
  in
  if not (Crypto.Bytesx.equal_ct (M.decode_finished msg) expected) then
    raise (Wire.Decode_error "server Finished MAC mismatch");
  Transcript.add p.transcript msg;
  let sfin_hash = Transcript.current p.transcript in
  (* 0-RTT closes with EndOfEarlyData under the early keys, part of
     the transcript the client Finished covers (section 4.5) *)
  let eoed_records =
    match ctx.c_early_write with
    | Some crypt ->
      let eoed = M.encode_end_of_early_data () in
      Transcript.add p.transcript eoed;
      Codec.fragment_encrypted crypt eoed
    | None -> ""
  in
  charge p.host Pqc.Costs.build_client_finished @@ fun () ->
  let fin =
    M.encode_finished
      (K.verify_data ~memo:p.memo ~base_key:secrets.K.client_handshake_traffic
         (Transcript.current p.transcript))
  in
  Transcript.add p.transcript fin;
  let crypt = make_record ~memo:p.memo cfg secrets.K.client_handshake_traffic in
  Netsim.Tcp.write_parts p.tcp ~marks:[ (0, "FIN_C") ]
    [ eoed_records; ccs_record; Codec.fragment_encrypted crypt fin ];
  (* both application traffic secrets are charged, as OpenSSL derives
     them eagerly; only the server's protects anything here *)
  charge_n p.host Pqc.Costs.key_schedule_derive 2 @@ fun () ->
  let s_app =
    K.server_application_traffic ~memo:p.memo ~master:secrets.K.master
      sfin_hash
  in
  if ctx.c_await_ticket then begin
    (* stay up for the post-handshake NewSessionTicket, which arrives
       under the server application traffic keys *)
    Codec.Inbound.enable_decryption p.inbound
      (make_record ~memo:p.memo cfg s_app);
    ctx.c_state <- C_ticket secrets;
    finish_step p
  end
  else complete p ctx.c_on_done

let client_on_ticket ctx (p : peer) msg secrets =
  charge_n p.host Pqc.Costs.key_schedule_derive 2 @@ fun () ->
  let nst = M.decode_new_session_ticket msg in
  let psk = ticket_psk p secrets ~nonce:nst.M.nst_nonce in
  ctx.c_on_ticket
    { psk; ticket = nst.M.nst_ticket; age_add = nst.M.nst_age_add;
      max_early_data = nst.M.nst_max_early_data };
  complete p ctx.c_on_done

let client_dispatch ctx p msg =
  match (ctx.c_state, M.handshake_type msg) with
  | C_server_hello { keypair; retried }, HT.Server_hello -> (
    let sh = M.decode_server_hello msg in
    match keypair with
    | _ when is_hrr sh -> client_on_hello_retry ctx p msg ~retried
    | Some keypair -> client_on_server_hello ctx p msg sh keypair
    | None -> raise (Wire.Decode_error "ServerHello for a share never sent"))
  | C_encrypted_extensions secrets, HT.Encrypted_extensions ->
    client_on_encrypted_extensions ctx p msg secrets
  | C_certificate secrets, HT.Certificate ->
    client_on_certificate ctx p msg secrets
  | C_certificate_verify (secrets, cert), HT.Certificate_verify ->
    client_on_certificate_verify ctx p msg secrets cert
  | C_finished secrets, HT.Finished -> client_on_finished ctx p msg secrets
  | C_ticket secrets, HT.New_session_ticket ->
    client_on_ticket ctx p msg secrets
  | _, ty ->
    raise (Wire.Decode_error (Printf.sprintf "unexpected %s" (HT.label ty)))

(* ---- driver ------------------------------------------------------------- *)

let run ?resume ?(early_data = false) ?(issue_ticket = false)
    ?(ticket_key = "stek") ?(on_ticket = fun _ -> ()) ~engine ~link
    ~tcp_config ~client_host ~server_host ~config ~rng ~on_done () =
  let client_tcp, server_tcp =
    Netsim.Tcp.create_pair engine link tcp_config ~client:client_host
      ~server:server_host
  in
  (* one transcript memo per connection: each handshake byte is hashed
     once, by whichever endpoint absorbs it first. Likewise one memo of
     derived values: each mocked KEM or signature output and each
     key-schedule secret or MAC that both endpoints need is derived
     once, and the other endpoint takes it (see Crypto.Memo). *)
  let client_transcript, server_transcript = Transcript.create_pair () in
  let memo = Crypto.Memo.create () in
  let client_peer = make_peer client_host client_tcp client_transcript memo in
  let server_peer = make_peer server_host server_tcp server_transcript memo in
  (* credentials are process-wide, so they keep the unshared algorithm;
     the peers run on algorithms rebound to this connection's memo *)
  let creds =
    Credentials.get ~profile:config.Config.chain_profile config.Config.sig_alg
  in
  let config =
    { config with
      Config.kem = Pqc.Kem.share memo config.Config.kem;
      sig_alg = Pqc.Sigalg.share memo config.Config.sig_alg }
  in
  let client_done_at = ref nan and server_done_at = ref nan in
  let early_data_bytes = ref 0 in
  let maybe_done () =
    if not (Float.is_nan !client_done_at || Float.is_nan !server_done_at) then
      on_done
        { client_finished_at = !client_done_at;
          server_finished_at = !server_done_at;
          client_tcp;
          server_tcp;
          resumed = resume <> None;
          early_data_bytes = !early_data_bytes;
          memo_left = Crypto.Memo.length memo }
  in
  let server_ctx =
    { s_cfg = config; s_creds = creds; s_rng = Crypto.Drbg.fork rng "server";
      s_issue_ticket = issue_ticket; s_ticket_key = ticket_key;
      s_early_bytes = early_data_bytes; s_state = S_client_hello;
      s_on_done =
        (fun () ->
          server_done_at := Netsim.Engine.now engine;
          maybe_done ()) }
  in
  server_peer.dispatch <- server_dispatch server_ctx;
  let client_rng = Crypto.Drbg.fork rng "client" in
  (* the client pre-computes its key share, then opens the connection;
     none of this is inside the measured phases (Fig. 1). With
     [wrong_first_key_share] it guesses a group the server will refuse. *)
  let guess_cost =
    if config.Config.wrong_first_key_share then
      (Pqc.Costs.kem "x25519").Pqc.Costs.kem_keygen
    else (kem_costs config).Pqc.Costs.kem_keygen
  in
  charge client_host guess_cost @@ fun () ->
  let keypair, group, share =
    if config.Config.wrong_first_key_share then
      (None, "wrong-guess", Crypto.Drbg.generate client_rng 32)
    else
      let keypair = config.Config.kem.Pqc.Kem.keygen client_rng in
      (Some keypair, config.Config.kem.Pqc.Kem.name, keypair.Pqc.Kem.public)
  in
  let client_ctx =
    { c_cfg = config; c_rng = client_rng; c_creds = creds;
      c_resume = resume; c_early_data = early_data && resume <> None;
      c_await_ticket = issue_ticket; c_on_ticket = on_ticket;
      c_session_id = ""; c_early_write = None;
      c_state = C_server_hello { keypair; retried = false };
      c_on_done =
        (fun () ->
          client_done_at := Netsim.Engine.now engine;
          maybe_done ()) }
  in
  client_peer.dispatch <- client_dispatch client_ctx;
  Netsim.Tcp.connect client_tcp ~on_established:(fun () ->
      client_hello client_ctx client_peer ~group ~share)
