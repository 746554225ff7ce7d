(* The trace-consuming aggregator: recompute the white-box (Table 3)
   CPU attribution purely from emitted "cpu" spans. Every virtual CPU
   charge in the simulator flows through Netsim.Host.charge{,_async},
   and both emit one cpu span carrying its library bucket — so these
   sums must agree with the Host ledgers to float rounding. *)

(* Sorted at the producer — biggest spender first, ties by name — so
   consumers never see (or depend on re-sorting away) hash-bucket
   order. Netsim.Host.ledger and the merged farm ledger are this too. *)
let per_lib h =
  Hashtbl.fold (fun lib ms acc -> (lib, ms) :: acc) h []
  |> List.sort (fun (la, a) (lb, b) ->
         match Float.compare b a with 0 -> String.compare la lb | c -> c)

let cpu_ms_by_lib buf =
  let tracks : (string, (string, float) Hashtbl.t) Hashtbl.t =
    Hashtbl.create 4
  in
  let track_order = ref [] in
  Buf.iter buf (fun ev ->
      match ev with
      | Event.Span s when s.Event.s_cat = "cpu" ->
        let lib =
          Option.value ~default:"?" (List.assoc_opt "lib" s.Event.s_args)
        in
        let per_lib =
          match Hashtbl.find_opt tracks s.Event.s_track with
          | Some h -> h
          | None ->
            let h = Hashtbl.create 8 in
            Hashtbl.add tracks s.Event.s_track h;
            track_order := s.Event.s_track :: !track_order;
            h
        in
        let ms = (s.Event.s_end -. s.Event.s_begin) *. 1000. in
        let prev = Option.value ~default:0. (Hashtbl.find_opt per_lib lib) in
        Hashtbl.replace per_lib lib (prev +. ms)
      | _ -> ());
  List.map
    (fun track -> (track, per_lib (Hashtbl.find tracks track)))
    (List.rev !track_order)

let shares per_lib =
  let total = List.fold_left (fun acc (_, ms) -> acc +. ms) 0. per_lib in
  if total <= 0. then []
  else List.map (fun (lib, ms) -> (lib, ms /. total)) per_lib

let cpu_shares buf =
  List.map (fun (track, libs) -> (track, shares libs)) (cpu_ms_by_lib buf)
