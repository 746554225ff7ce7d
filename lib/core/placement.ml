(* The signature-placement study (Table 7): how the chain profile — which
   SA signs at each hierarchy level — moves full-chain wire size,
   verification CPU, and the number of TCP flights the server's
   certificate flight needs under slow-start. Catalog renders the
   table from these two functions. *)

let flights_to_deliver ~(tcp : Netsim.Tcp.config) bytes =
  (* flight n delivers init_cwnd * 2^(n-1) segments: the smallest n with
     mss * init_cwnd * (2^n - 1) >= bytes gets the flight on the wire *)
  let window = Netsim.Tcp.mss * tcp.Netsim.Tcp.init_cwnd_segments in
  let rec go n delivered cwnd_bytes =
    if delivered >= bytes then n
    else go (n + 1) (delivered + cwnd_bytes) (2 * cwnd_bytes)
  in
  if bytes <= 0 then 0 else go 0 0 window

(* per-level stats of exactly the credentials the mocked cells serve
   (same cache entry), computable without running the cell — failed
   cells still render their placement columns *)
let chain_stats ~profile alg =
  let creds = Tls.Credentials.get ~profile (Pqc.Sigalg.mocked alg) in
  Tls.Chain.levels creds.Tls.Credentials.chain
