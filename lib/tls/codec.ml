module Consumable = struct
  type t = { mutable data : Buffer.t; mutable offset : int }

  let create () = { data = Buffer.create 1024; offset = 0 }

  let compact t =
    if t.offset > 16384 && t.offset * 2 > Buffer.length t.data then begin
      let rest = Buffer.sub t.data t.offset (Buffer.length t.data - t.offset) in
      let fresh = Buffer.create (String.length rest + 1024) in
      Buffer.add_string fresh rest;
      t.data <- fresh;
      t.offset <- 0
    end

  let add t s = Buffer.add_string t.data s
  let length t = Buffer.length t.data - t.offset

  let peek t n =
    if length t < n then None else Some (Buffer.sub t.data t.offset n)

  let consume t n =
    assert (length t >= n);
    t.offset <- t.offset + n;
    compact t
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
  let enable_decryption t r = t.crypt <- Some r

  (* consume one full record from raw if available; return true on progress *)
  let pull_record t =
    match Consumable.peek t.raw 5 with
    | None -> false
    | Some header ->
      let len = (Char.code header.[3] lsl 8) lor Char.code header.[4] in
      (match Consumable.peek t.raw (5 + len) with
      | None -> false
      | Some full ->
        Consumable.consume t.raw (5 + len);
        let body = String.sub full 5 len in
        (match Wire.Content_type.of_byte (Char.code full.[0]) with
        | Wire.Content_type.Change_cipher_spec ->
          t.pending_ccs <- true;
          true
        | Wire.Content_type.Alert ->
          raise (Wire.Decode_error "unexpected alert")
        | Wire.Content_type.Handshake ->
          Consumable.add t.hs body;
          true
        | Wire.Content_type.Application_data ->
          (match t.crypt with
          | None -> raise (Wire.Decode_error "ciphertext before keys")
          | Some r ->
            (match Record.open_ r body with
            | None -> raise (Wire.Decode_error "record authentication failed")
            | Some (Wire.Content_type.Handshake, frag) ->
              Consumable.add t.hs frag;
              true
            | Some (Wire.Content_type.Change_cipher_spec, _) ->
              t.pending_ccs <- true;
              true
            | Some (Wire.Content_type.Application_data, frag) ->
              (* 0-RTT: early application data under the early keys *)
              t.pending_app <- t.pending_app @ [ frag ];
              true
            | Some _ -> raise (Wire.Decode_error "unexpected inner type")))))

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
          match Consumable.peek t.hs 4 with
          | Some hdr ->
            let len =
              (Char.code hdr.[1] lsl 16) lor (Char.code hdr.[2] lsl 8)
              lor Char.code hdr.[3]
            in
            (match Consumable.peek t.hs (4 + len) with
            | Some msg ->
              Consumable.consume t.hs (4 + len);
              Handshake_message msg
            | None -> if pull_record t then go () else Need_more_data)
          | None -> if pull_record t then go () else Need_more_data)
    in
    go ()
end

let max_fragment = 16384

(* the 2^14-byte chunking every record path shares; [record] frames one
   chunk (plaintext, or sealed under a write state) *)
let fragment record msg =
  let buf = Buffer.create (String.length msg + 64) in
  let n = String.length msg in
  let pos = ref 0 in
  while !pos < n do
    let len = min max_fragment (n - !pos) in
    Buffer.add_string buf (record (String.sub msg !pos len));
    pos := !pos + len
  done;
  Buffer.contents buf

let fragment_plaintext = fragment (Wire.record Wire.Content_type.Handshake)

let fragment_encrypted crypt =
  fragment (Record.seal crypt Wire.Content_type.Handshake)

let fragment_app crypt =
  fragment (Record.seal crypt Wire.Content_type.Application_data)
