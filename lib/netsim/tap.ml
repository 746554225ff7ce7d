type entry = { time : float; packet : Packet.t }

type t = { mutable rev_entries : entry list; mutable count : int }

let create () = { rev_entries = []; count = 0 }

let tap t time packet =
  t.rev_entries <- { time; packet } :: t.rev_entries;
  t.count <- t.count + 1

let entries t = List.rev t.rev_entries

let clear t =
  t.rev_entries <- [];
  t.count <- 0

let length t = t.count

let find_mark t ?(after = neg_infinity) label =
  let matches e =
    e.time >= after
    && List.exists (fun (_, l) -> l = label) e.packet.Packet.marks
  in
  (* stored newest-first: scan reversed *)
  List.find_opt matches (entries t)
