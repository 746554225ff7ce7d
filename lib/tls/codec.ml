[@@@lint.kernel
  "fragment's buffer is created locally at the exact size of its \
   records, written only by checked blits and sets (Record.seal_into \
   and fragment_plaintext's header and body), and unsafe_to_string \
   takes it after its last write; Inbound reads and writes its queues \
   through checked Bytes operations only"]

(* A queue of frames: a frame is a [header]-byte header whose big-endian
   [width]-byte integer at [at] is the body length, then the body. The
   unconsumed bytes are [data.[off .. off + len)]. A frame's header goes
   in before its body, so the queue knows the frame's size before the
   body needs room. The bytes move only when the tail has no room.
   While the front frame is arriving, they move to the front, or into
   a buffer of exactly that frame's size. Otherwise they move to the
   front when they are no more than the bytes consumed since the last
   move, and else into a buffer at least twice as large. So a queue
   that holds one frame at a time grows once per larger frame, and no
   byte moves more often than a byte is consumed. A header announcing a
   body over [max_body] is a decode error before any buffer grows, so a
   peer cannot make the queue allocate more than that. *)
module Consumable = struct
  type t = {
    header : int;
    at : int;
    width : int;
    max_body : int;
    mutable data : Bytes.t;
    mutable off : int;
    mutable len : int;
  }

  let create ~header ~at ~width ~max_body =
    { header; at; width; max_body; data = Bytes.create 1024; off = 0; len = 0 }

  (* the size of the front frame once its header is in, else 0 *)
  let frame_size t =
    if t.len < t.header then 0
    else begin
      let body = ref 0 in
      for i = t.at to t.at + t.width - 1 do
        body := (!body lsl 8) lor Char.code (Bytes.get t.data (t.off + i))
      done;
      if !body > t.max_body then
        raise
          (Wire.Decode_error
             (Printf.sprintf "frame of %d bytes over the %d-byte limit" !body
                t.max_body));
      t.header + !body
    end

  (* room at the tail for [n] more bytes *)
  let reserve t n =
    let cap = Bytes.length t.data and need = t.len + n in
    let frame = frame_size t in
    if t.off + max need frame > cap then begin
      let dst =
        if frame > need then if frame <= cap then t.data else Bytes.create frame
        else if need <= cap && t.len <= t.off then t.data
        else Bytes.create (max need (2 * cap))
      in
      Bytes.blit t.data t.off dst 0 t.len;
      t.data <- dst;
      t.off <- 0
    end

  (* append [n] bytes, [blit i dst pos k] copying [k] of them, from the
     [i]-th on, to [dst] at [pos]; the front frame's header first *)
  let rec add t blit i n =
    if n > 0 then begin
      let k = if t.len < t.header then min n (t.header - t.len) else n in
      reserve t k;
      blit i t.data (t.off + t.len) k;
      t.len <- t.len + k;
      add t blit (i + k) (n - k)
    end

  let add_string t s off n =
    add t (fun i dst pos k -> Bytes.blit_string s (off + i) dst pos k) 0 n

  let add_bytes t b off n =
    add t (fun i dst pos k -> Bytes.blit b (off + i) dst pos k) 0 n

  (* the size of the front frame, once all of it has arrived *)
  let complete t =
    let size = frame_size t in
    if size > 0 && t.len >= size then Some size else None

  let drop t n =
    assert (t.len >= n);
    t.off <- t.off + n;
    t.len <- t.len - n

  let take t n =
    let s = Bytes.sub_string t.data t.off n in
    drop t n;
    s

  (* a buffer just large enough for the unconsumed bytes *)
  let shrink t =
    t.data <- Bytes.sub t.data t.off t.len;
    t.off <- 0
end

let max_fragment = 16384
let max_record_body = max_fragment + 256
let max_handshake_body = 1 lsl 17

module Inbound = struct
  type event =
    | Handshake_message of string
    | Application_data of string
    | Change_cipher_spec
    | Need_more_data

  type t = {
    unread : string Queue.t;  (* fed strings, as they arrived *)
    mutable unread_off : int;  (* bytes of the first already in raw *)
    raw : Consumable.t;  (* the front record, as far as it has arrived *)
    hs : Consumable.t;  (* handshake messages *)
    mutable crypt : Record.t option;
    mutable pending_ccs : bool;
    mutable pending_app : string list;  (* arrival order *)
  }

  let create () =
    { unread = Queue.create (); unread_off = 0;
      raw =
        Consumable.create ~header:5 ~at:3 ~width:2 ~max_body:max_record_body;
      hs =
        Consumable.create ~header:4 ~at:1 ~width:3 ~max_body:max_handshake_body;
      crypt = None; pending_ccs = false; pending_app = [] }

  let feed t s = if String.length s > 0 then Queue.push s t.unread

  (* move unread bytes into raw until its front record is complete or
     nothing is left, so raw holds one record at a time *)
  let rec fill t =
    let raw = t.raw in
    let want =
      match Consumable.frame_size raw with
      | 0 -> raw.Consumable.header
      | size -> size
    in
    match Queue.peek_opt t.unread with
    | Some s when raw.Consumable.len < want ->
      let n = min (want - raw.Consumable.len) (String.length s - t.unread_off) in
      Consumable.add_string raw s t.unread_off n;
      t.unread_off <- t.unread_off + n;
      if t.unread_off = String.length s then begin
        ignore (Queue.pop t.unread);
        t.unread_off <- 0
      end;
      fill t
    | _ -> ()

  let release t =
    Consumable.shrink t.raw;
    Consumable.shrink t.hs

  let enable_decryption t r = t.crypt <- Some r

  (* Process one full record from raw where it lies, then drop it;
     return true on progress. A handshake fragment goes from there to
     the handshake queue, opened in place first if it is protected. *)
  let pull_record t =
    fill t;
    match Consumable.complete t.raw with
    | None -> false
    | Some size ->
      let data = t.raw.Consumable.data and body = t.raw.Consumable.off + 5 in
      let len = size - 5 in
      (match Wire.Content_type.of_byte (Char.code (Bytes.get data (body - 5))) with
      | Wire.Content_type.Change_cipher_spec -> t.pending_ccs <- true
      | Wire.Content_type.Alert -> raise (Wire.Decode_error "unexpected alert")
      | Wire.Content_type.Handshake -> Consumable.add_bytes t.hs data body len
      | Wire.Content_type.Application_data -> (
        match t.crypt with
        | None -> raise (Wire.Decode_error "ciphertext before keys")
        | Some r -> (
          match Record.open_in_place r data body len with
          | None -> raise (Wire.Decode_error "record authentication failed")
          | Some (Wire.Content_type.Handshake, n) ->
            Consumable.add_bytes t.hs data body n
          | Some (Wire.Content_type.Change_cipher_spec, _) ->
            t.pending_ccs <- true
          | Some (Wire.Content_type.Application_data, n) ->
            (* 0-RTT: early application data under the early keys *)
            t.pending_app <- t.pending_app @ [ Bytes.sub_string data body n ]
          | Some _ -> raise (Wire.Decode_error "unexpected inner type"))));
      Consumable.drop t.raw size;
      true

  let next t =
    let rec go () =
      if t.pending_ccs then begin
        t.pending_ccs <- false;
        Change_cipher_spec
      end
      else
        match t.pending_app with
        | frag :: rest ->
          t.pending_app <- rest;
          Application_data frag
        | [] -> (
          match Consumable.complete t.hs with
          | Some size -> Handshake_message (Consumable.take t.hs size)
          | None -> if pull_record t then go () else Need_more_data)
    in
    go ()
end

(* the 2^14-byte chunking every record path shares: a message is laid
   out as its records in one buffer of their exact size, [into buf pos s
   off len] writing the record of [s]'s chunk at [pos] *)
let fragment ~overhead ~into msg =
  let n = String.length msg in
  let records = (n + max_fragment - 1) / max_fragment in
  let buf = Bytes.create (n + (records * overhead)) in
  for i = 0 to records - 1 do
    let off = i * max_fragment in
    into buf (off + (i * overhead)) msg off (min max_fragment (n - off))
  done;
  Bytes.unsafe_to_string buf

let fragment_plaintext =
  let ty = Wire.Content_type.Handshake in
  fragment ~overhead:5 ~into:(fun buf pos s off len ->
      Bytes.blit_string (Wire.record_header ty len) 0 buf pos 5;
      Bytes.blit_string s off buf (pos + 5) len)

let fragment_sealed ty crypt =
  fragment ~overhead:Record.overhead ~into:(Record.seal_into crypt ty)

let fragment_encrypted = fragment_sealed Wire.Content_type.Handshake
let fragment_app = fragment_sealed Wire.Content_type.Application_data
