(* Classic pcap (v2.4) with synthesized Ethernet/IPv4/TCP framing.
   Checksums are left zero (Wireshark treats them as offloaded). *)

let client_ip = "10.0.0.1"
let server_ip = "10.0.0.2"
let client_mac = "\x02\x00\x00\x00\x00\x01"
let server_mac = "\x02\x00\x00\x00\x00\x02"
let client_port = 45000
let server_port = 4433

let le16 v = String.init 2 (fun i -> Char.chr ((v lsr (8 * i)) land 0xff))
let le32 v = String.init 4 (fun i -> Char.chr ((v lsr (8 * i)) land 0xff))
let be16 = Crypto.Bytesx.u16_be

let ip_bytes s =
  String.concat ""
    (List.map
       (fun part -> String.make 1 (Char.chr (int_of_string part)))
       (String.split_on_char '.' s))

let global_header =
  le32 0xa1b2c3d4 (* magic, microsecond resolution *)
  ^ le16 2 ^ le16 4 (* version 2.4 *)
  ^ le32 0 (* thiszone *)
  ^ le32 0 (* sigfigs *)
  ^ le32 65535 (* snaplen *)
  ^ le32 1 (* LINKTYPE_ETHERNET *)

let tcp_flags_byte (f : Packet.flags) =
  (if f.Packet.fin then 0x01 else 0)
  lor (if f.Packet.syn then 0x02 else 0)
  lor if f.Packet.ack then 0x10 else 0

let frame (p : Packet.t) =
  let from_client = p.Packet.src = "client" in
  let src_mac, dst_mac =
    if from_client then (client_mac, server_mac) else (server_mac, client_mac)
  in
  let src_ip, dst_ip =
    if from_client then (client_ip, server_ip) else (server_ip, client_ip)
  in
  let src_port, dst_port =
    if from_client then (client_port, server_port) else (server_port, client_port)
  in
  let payload = p.Packet.payload in
  (* TCP header with a timestamp-option-sized padding (NOPs), matching the
     wire-size accounting of Packet.header_bytes *)
  let opt_len = if p.Packet.flags.Packet.syn then 20 else 12 in
  let data_offset_words = (20 + opt_len) / 4 in
  let tcp =
    be16 src_port ^ be16 dst_port
    ^ Crypto.Bytesx.u32_be (p.Packet.seq + 1)
    ^ Crypto.Bytesx.u32_be (p.Packet.ack_seq + 1)
    ^ String.make 1 (Char.chr (data_offset_words lsl 4))
    ^ String.make 1 (Char.chr (tcp_flags_byte p.Packet.flags))
    ^ be16 65535 (* window *)
    ^ "\x00\x00" (* checksum: offloaded *)
    ^ "\x00\x00" (* urgent *)
    ^ String.make opt_len '\x01' (* NOP padding standing in for options *)
  in
  let total_len = 20 + String.length tcp + String.length payload in
  let ipv4 =
    "\x45\x00" ^ be16 total_len
    ^ be16 (p.Packet.id land 0xffff)
    ^ "\x40\x00" (* don't fragment *)
    ^ "\x40\x06" (* ttl 64, protocol TCP *)
    ^ "\x00\x00" (* header checksum: offloaded *)
    ^ ip_bytes src_ip ^ ip_bytes dst_ip
  in
  dst_mac ^ src_mac ^ "\x08\x00" (* ethertype IPv4 *) ^ ipv4 ^ tcp ^ payload

let record time p =
  let f = frame p in
  let secs = int_of_float time in
  let usecs = int_of_float ((time -. float_of_int secs) *. 1e6) in
  le32 secs ^ le32 usecs
  ^ le32 (String.length f)
  ^ le32 (String.length f)
  ^ f

let of_entries entries =
  let buf = Buffer.create 65536 in
  Buffer.add_string buf global_header;
  List.iter
    (fun (e : Tap.entry) ->
      Buffer.add_string buf (record e.Tap.time e.Tap.packet))
    entries;
  Buffer.contents buf

let write_file path trace =
  let oc = open_out_bin path in
  output_string oc (of_entries (Tap.entries trace));
  close_out oc
