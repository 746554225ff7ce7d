(* A byte queue whose unconsumed bytes are [data.[off .. off + len)].
   Appending moves them, to the front or into a buffer twice as large,
   only when the tail has no room, so each byte is copied in once and
   out once, plus an amortized constant. *)
module Consumable = struct
  type t = { mutable data : Bytes.t; mutable off : int; mutable len : int }

  let create () = { data = Bytes.create 1024; off = 0; len = 0 }

  let add_sub t s soff n =
    let cap = Bytes.length t.data in
    if t.off + t.len + n > cap then begin
      let dst =
        if 2 * (t.len + n) <= cap then t.data
        else Bytes.create (max (2 * cap) (t.len + n))
      in
      Bytes.blit t.data t.off dst 0 t.len;
      t.data <- dst;
      t.off <- 0
    end;
    Bytes.blit_string s soff t.data (t.off + t.len) n;
    t.len <- t.len + n

  let add t s = add_sub t s 0 (String.length s)

  (* The size of the frame at the front (a [header]-byte header whose
     big-endian [width]-byte integer at [at] is the body length), once
     all of it has arrived. The header is read in place. *)
  let complete t ~header ~at ~width =
    if t.len < header then None
    else begin
      let body = ref 0 in
      for i = at to at + width - 1 do
        body := (!body lsl 8) lor Char.code (Bytes.get t.data (t.off + i))
      done;
      if t.len >= header + !body then Some (header + !body) else None
    end

  let take t n =
    assert (t.len >= n);
    let s = Bytes.sub_string t.data t.off n in
    t.off <- t.off + n;
    t.len <- t.len - n;
    s

  (* a buffer just large enough for the unconsumed bytes *)
  let shrink t =
    t.data <- Bytes.sub t.data t.off t.len;
    t.off <- 0
end

module Inbound = struct
  type event =
    | Handshake_message of string
    | Application_data of string
    | Change_cipher_spec
    | Need_more_data

  type t = {
    raw : Consumable.t;
    hs : Consumable.t;
    mutable crypt : Record.t option;
    mutable pending_ccs : bool;
    mutable pending_app : string list;  (* arrival order *)
  }

  let create () =
    { raw = Consumable.create (); hs = Consumable.create (); crypt = None;
      pending_ccs = false; pending_app = [] }

  let feed t s = Consumable.add t.raw s

  let release t =
    Consumable.shrink t.raw;
    Consumable.shrink t.hs

  let enable_decryption t r = t.crypt <- Some r

  (* consume one full record from raw if available; return true on
     progress. The record is copied out once, and its fragment once
     more into the handshake buffer. *)
  let pull_record t =
    match Consumable.complete t.raw ~header:5 ~at:3 ~width:2 with
    | None -> false
    | Some size -> (
      let record = Consumable.take t.raw size in
      let len = size - 5 in
      match Wire.Content_type.of_byte (Char.code record.[0]) with
      | Wire.Content_type.Change_cipher_spec ->
        t.pending_ccs <- true;
        true
      | Wire.Content_type.Alert -> raise (Wire.Decode_error "unexpected alert")
      | Wire.Content_type.Handshake ->
        Consumable.add_sub t.hs record 5 len;
        true
      | Wire.Content_type.Application_data -> (
        match t.crypt with
        | None -> raise (Wire.Decode_error "ciphertext before keys")
        | Some r -> (
          match Record.open_sub r record 5 len with
          | None -> raise (Wire.Decode_error "record authentication failed")
          | Some (Wire.Content_type.Handshake, s, off, n) ->
            Consumable.add_sub t.hs s off n;
            true
          | Some (Wire.Content_type.Change_cipher_spec, _, _, _) ->
            t.pending_ccs <- true;
            true
          | Some (Wire.Content_type.Application_data, s, off, n) ->
            (* 0-RTT: early application data under the early keys *)
            t.pending_app <- t.pending_app @ [ String.sub s off n ];
            true
          | Some _ -> raise (Wire.Decode_error "unexpected inner type"))))

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
          match Consumable.complete t.hs ~header:4 ~at:1 ~width:3 with
          | Some size -> Handshake_message (Consumable.take t.hs size)
          | None -> if pull_record t then go () else Need_more_data)
    in
    go ()
end

let max_fragment = 16384

(* the 2^14-byte chunking every record path shares: [one] frames a whole
   message that fits one record, [into] appends the record of a chunk
   to a buffer presized for all of them *)
let fragment ~overhead ~one ~into msg =
  let n = String.length msg in
  if n = 0 then ""
  else if n <= max_fragment then one msg
  else begin
    let records = (n + max_fragment - 1) / max_fragment in
    let buf = Buffer.create (n + (records * overhead)) in
    let pos = ref 0 in
    while !pos < n do
      let len = min max_fragment (n - !pos) in
      into buf msg !pos len;
      pos := !pos + len
    done;
    Buffer.contents buf
  end

let fragment_plaintext =
  let ty = Wire.Content_type.Handshake in
  fragment ~overhead:5 ~one:(Wire.record ty) ~into:(fun buf s off len ->
      Buffer.add_string buf (Wire.record_header ty len);
      Buffer.add_substring buf s off len)

let fragment_sealed ty crypt =
  fragment ~overhead:Record.overhead ~one:(Record.seal crypt ty)
    ~into:(Record.seal_into crypt ty)

let fragment_encrypted = fragment_sealed Wire.Content_type.Handshake
let fragment_app = fragment_sealed Wire.Content_type.Application_data
