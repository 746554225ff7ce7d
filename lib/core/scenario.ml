type t = { name : string; label : string; netem : Netsim.Link.netem }

let base = Netsim.Link.ideal

let no_emulation = { name = "none"; label = "No Emulation"; netem = base }

(* netem ran on one egress in the testbed: loss hits the downstream
   (server -> client) path, which carries nearly all handshake bytes *)
let high_loss =
  { name = "loss"; label = "High Loss (10%)";
    netem = { base with loss = 0.10; loss_towards = Some "client" } }

let low_bandwidth =
  { name = "bandwidth"; label = "Low Bandwidth (1 Mbit/s)";
    netem = { base with rate_bps = 1e6 } }

let high_delay =
  { name = "delay"; label = "High Delay (1s RTT)";
    netem = { base with delay_s = 0.5 } }

let lte_m =
  { name = "lte-m"; label = "LTE-M";
    netem =
      { loss = 0.10; loss_towards = Some "client"; delay_s = 0.1;
        jitter_s = 0.; rate_bps = 1e6 } }

let five_g =
  { name = "5g"; label = "5G";
    netem =
      { loss = 0.04; loss_towards = Some "client"; delay_s = 0.022;
        jitter_s = 0.; rate_bps = 880e6 } }

let all = [ no_emulation; high_loss; low_bandwidth; high_delay; lte_m; five_g ]
