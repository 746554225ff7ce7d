type entry = { name : string; latency_ms : float; rank : int }

let rank latencies =
  match latencies with
  | [] -> []
  | _ ->
    let logs = List.map (fun (n, l) -> (n, Float.log l)) latencies in
    let lo, hi = Stats.min_max (List.map snd logs) in
    let scale v =
      if hi -. lo < 1e-9 then 0
      else int_of_float (Float.round (10. *. (v -. lo) /. (hi -. lo)))
    in
    logs
    |> List.map (fun (n, v) ->
           { name = n;
             latency_ms = Float.exp v;
             rank = scale v })
    |> List.sort (fun a b -> compare (a.rank, a.latency_ms) (b.rank, b.latency_ms))

let total o = Experiment.median_of (fun s -> s.Experiment.total_ms) o
let of_outcomes outcomes = rank (List.map (fun (n, o) -> (n, total o)) outcomes)
