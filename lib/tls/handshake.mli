(** The full simulated TLS 1.3 handshake: client and server state
    machines running over simulated TCP, performing the real cryptography
    of the configured KA x SA pair and charging each host the calibrated
    virtual CPU cost of every operation.

    The server reproduces both OpenSSL flight-assembly behaviours from
    the paper (section 4): the stock 4096-byte buffer and the optimized
    push of ServerHello/Certificate.

    Beyond the 1-RTT flow, the machines speak PSK resumption
    (psk_dhe_ke), NewSessionTicket issuance and 0-RTT early data
    (RFC 8446 sections 2.2, 4.6.1, 4.2.10): a resumed handshake omits
    Certificate/CertificateVerify from the server flight, and the binder
    over the truncated ClientHello transcript is verified constant-time
    and fails closed.

    Each side's state is one variant, and each transition one function:
    - server: [S_client_hello -> S_end_of_early_data (0-RTT accepted
      only) -> S_client_finished -> done], then a NewSessionTicket when
      tickets are on. In [S_client_hello] a PSK offer has its binder
      checked and a wrong group gets a HelloRetryRequest (staying in
      [S_client_hello]). Full and resumed handshakes share one flight:
      ServerHello, CCS, EncryptedExtensions, then Certificate and
      CertificateVerify (full only), then Finished.
    - client: [ClientHello (with the PSK offer and 0-RTT data when
      resuming) -> C_server_hello -> C_encrypted_extensions ->
      C_certificate -> C_certificate_verify -> C_finished -> C_ticket
      (when a ticket is expected) -> done]. A HelloRetryRequest sends
      the second ClientHello and re-enters [C_server_hello], once; a
      resumed handshake goes from [C_encrypted_extensions] straight to
      [C_finished]. *)

type result = {
  client_finished_at : float;
      (** virtual time at which the client finished (its Finished hit
          TCP, or — when a ticket was requested — the NewSessionTicket
          was processed) *)
  server_finished_at : float;  (** server validated the client Finished *)
  client_tcp : Netsim.Tcp.t;
  server_tcp : Netsim.Tcp.t;
  resumed : bool;  (** this run offered (and used) a resumption PSK *)
  early_data_bytes : int;
      (** 0-RTT application bytes the server accepted *)
  memo_left : int;
      (** entries left in the connection's memo when both sides had
          finished: values one side derived that the other never needed
          (see {!Crypto.Memo}) *)
}

type session = {
  psk : string;  (** the resumption PSK (client side of section 4.6.1) *)
  ticket : string;  (** the opaque STEK-sealed server ticket *)
  age_add : int;
  max_early_data : int;
}
(** Client-side resumption state distilled from one NewSessionTicket. *)

val default_max_early_data : int
(** max_early_data_size advertised on issued tickets (bytes). *)

val early_data_size : int
(** 0-RTT payload size a resuming client sends when early data is on. *)

val run :
  ?resume:session ->
  ?early_data:bool ->
  ?issue_ticket:bool ->
  ?ticket_key:string ->
  ?on_ticket:(session -> unit) ->
  engine:Netsim.Engine.t ->
  link:Netsim.Link.t ->
  tcp_config:Netsim.Tcp.config ->
  client_host:Netsim.Host.t ->
  server_host:Netsim.Host.t ->
  config:Config.t ->
  rng:Crypto.Drbg.t ->
  on_done:(result -> unit) ->
  unit ->
  unit
(** Creates a fresh connection, runs one handshake and reports both
    completion times. The two endpoints share the connection's memos:
    each handshake byte is hashed once, and each mocked KEM or
    signature output and key-schedule secret or MAC that both need is
    derived once ({!Pqc.Kem.share}, {!Pqc.Sigalg.share}). Outputs,
    virtual time and every check are as if each side derived alone.
    [?resume] offers the session's PSK (psk_dhe_ke);
    [?early_data] additionally sends 0-RTT data (needs [?resume]);
    [?issue_ticket] has the server send a NewSessionTicket after the
    handshake, delivered to [?on_ticket] — the client then counts as
    finished once the ticket is processed. Raises [Wire.Decode_error]
    on protocol corruption, including a PSK binder mismatch (which a
    correct simulation never produces). *)
