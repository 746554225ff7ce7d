(** Section 5.5: PQ TLS as an attack surface.

    Two asymmetries per KA x SA pair: CPU-cost skew between server and
    client (algorithmic-complexity attacks) and the response/request
    byte amplification usable with spoofed sources (the paper contrasts
    the worst factor with QUIC's mandated limit of 3). *)

type row = {
  kem : string;
  sa : string;
  cpu_ratio : float;  (** server CPU per handshake / client CPU *)
  amplification : float;  (** server bytes sent / client bytes sent *)
}

val measure : seed:string -> Pqc.Kem.t -> Pqc.Sigalg.t -> row

val survey : seed:string -> exec:Exec.t -> unit -> row list
(** Every SA against the x25519 baseline plus the white-box pairs;
    sorted by amplification, worst first. *)

val worst_amplification : row list -> row
val worst_cpu_ratio : row list -> row
val quic_limit : float
(** 3.0 *)
