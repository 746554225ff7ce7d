(** Virtual CPU-time calibration table.

    Every cryptographic operation in the simulated handshake charges the
    executing host the number of (virtual) milliseconds listed here.
    Values model one core of the paper's Intel Xeon D-1518 (2.2 GHz) and
    were fitted in two steps: initial values from public liboqs / OpenSSL
    benchmarks of that CPU class, then refined so that the simulator's
    Table 2 matches the paper's phase medians (see EXPERIMENTS.md for the
    final residuals). Each operation also carries the shared library that
    would have executed it, which feeds the white-box accounting of
    Table 3. *)

type lib = Libcrypto | Libssl | Kernel | Libc | Ixgbe | Python

val lib_name : lib -> string

type op = {
  ms : float;
  lib : lib;
  label : string;
      (** trace span name ("keygen kyber512", "parse ClientHello", ...);
          [""] means "use the library name" *)
}

type kem_costs = { kem_keygen : op; kem_encaps : op; kem_decaps : op }
type sig_costs = {
  sign : op;
  verify : op;
  ch_overhead : float;
      (** extra server-side ClientHello-processing ms observed for
          OQS-provider signature algorithms (Table 2b partA spread) *)
}

val kem : string -> kem_costs
(** Lookup by the paper's algorithm spelling; hybrid names
    ([p256_kyber512]) cost the sum of their components.
    @raise Not_found for unknown algorithms. *)

val sig_ : string -> sig_costs
(** Same for signature algorithms (accepts both [rsa:3072] and the
    [rsa3072] spelling used inside hybrid names). *)

(** Fixed protocol overheads, also in virtual ms. *)

val parse_client_hello : op
val build_server_flight : op
val parse_server_flight : op
val build_client_finished : op
val key_schedule_derive : op
(** One HKDF extract/expand stage. *)

val aead_per_kilobyte : op
val connection_setup : op
(** accept(2)/socket bookkeeping per handshake, charged to the kernel. *)

val harness_gap_ms : float
(** Inter-handshake gap of the measurement loop (python tooling +
    connection teardown); contributes to handshakes-per-60 s and the
    white-box python share, but never to handshake latency. *)
