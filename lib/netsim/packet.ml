type flags = { syn : bool; ack : bool; fin : bool }

type t = {
  id : int;
  src : string;
  dst : string;
  flags : flags;
  seq : int;
  ack_seq : int;
  payload : string;
  marks : (int * string) list;
}

let plain_flags = { syn = false; ack = true; fin = false }
let syn_flags = { syn = true; ack = false; fin = false }
let synack_flags = { syn = true; ack = true; fin = false }
let ack_flags = plain_flags
let fin_flags = { syn = false; ack = true; fin = true }

let ethernet = 14
let ipv4 = 20
let tcp_base = 20
let tcp_options_syn = 20 (* MSS, SACK-permitted, timestamps, window scale *)
let tcp_options = 12 (* timestamps *)

let header_bytes p =
  ethernet + ipv4 + tcp_base
  + if p.flags.syn then tcp_options_syn else tcp_options

let payload_len p = String.length p.payload
let wire_bytes p = header_bytes p + payload_len p

let describe p =
  let fl = p.flags in
  Printf.sprintf "%s->%s %s%sseq=%d ack=%d len=%d%s" p.src p.dst
    (if fl.syn then "SYN " else "")
    (if fl.fin then "FIN " else "")
    p.seq p.ack_seq (payload_len p)
    (match p.marks with
    | [] -> ""
    | ms -> " [" ^ String.concat "," (List.map snd ms) ^ "]")
