module Sha256 = Crypto.Sha256

(* A connection's two endpoints hash the same handshake messages, so
   they share a memo. The first endpoint to absorb a message from a
   given state records that state, the message and the state it led
   to; the other endpoint, reaching the same state with equal bytes,
   takes the recorded state instead of hashing. A state is named by an
   id minted when it is first computed (0 is the initial state), and an
   endpoint only ever holds an id it computed itself or took with its
   state, so equal ids mean equal hash states. *)

type entry = {
  from : int;
  msg : string;
  into : int;
  state : Sha256.state;  (* the hash state named [into] *)
}

type memo = { mutable next_id : int; mutable pending : entry list }

type t = {
  mutable ctx : Sha256.ctx;
  mutable id : int;
  memo : memo option;  (* [None]: an endpoint without a peer *)
}

let fresh memo = { ctx = Sha256.init (); id = 0; memo }
let create () = fresh None

let create_pair () =
  let memo = Some { next_id = 1; pending = [] } in
  (fresh memo, fresh memo)

let reset t =
  t.ctx <- Sha256.init ();
  t.id <- 0

(* The entry recorded from state [id], removed from the memo whether or
   not the bytes will agree: an entry serves one lookup, so the memo
   holds only messages in flight, and a dropped entry costs a hash,
   never a wrong one. *)
let take memo id =
  let rec go seen = function
    | [] -> None
    | e :: rest when e.from = id ->
      memo.pending <- List.rev_append seen rest;
      Some e
    | e :: rest -> go (e :: seen) rest
  in
  go [] memo.pending

let add t msg =
  match t.memo with
  | None -> Sha256.feed t.ctx msg
  | Some memo -> (
    match take memo t.id with
    | Some e when Crypto.Bytesx.equal_ct e.msg msg ->
      Sha256.restore t.ctx e.state;
      t.id <- e.into
    | _ ->
      Sha256.feed t.ctx msg;
      let into = memo.next_id in
      memo.next_id <- into + 1;
      memo.pending <-
        { from = t.id; msg; into; state = Sha256.save t.ctx } :: memo.pending;
      t.id <- into)

let current t = Sha256.get t.ctx
