type row = {
  kem : string;
  sa : string;
  cpu_ratio : float;
  amplification : float;
}

let quic_limit = 3.0

let row_of kem sa (o : Experiment.outcome) =
  let med f = Stats.median_int (List.map f o.Experiment.samples) in
  { kem = kem.Pqc.Kem.name;
    sa = sa.Pqc.Sigalg.name;
    cpu_ratio = o.Experiment.server_cpu_ms /. o.Experiment.client_cpu_ms;
    amplification =
      med (fun s -> s.Experiment.server_bytes)
      /. med (fun s -> s.Experiment.client_bytes) }

let survey ~seed ~exec () =
  let pairs =
    List.map (fun sa -> (Pqc.Registry.baseline_kem, sa)) Pqc.Registry.sigs
    @ List.map
        (fun (_, k, s) -> (Pqc.Registry.find_kem k, Pqc.Registry.find_sig s))
        Whitebox.paper_pairs
  in
  let results =
    Exec.cells exec (List.map (fun (k, s) -> Experiment.spec ~seed k s) pairs)
  in
  (* failed cells simply drop out of the survey *)
  let rows =
    List.concat
      (List.map2
         (fun (k, s) r ->
           match r with Ok o -> [ row_of k s o ] | Error _ -> [])
         pairs results)
  in
  List.sort (fun a b -> Float.compare b.amplification a.amplification) rows

let worst_by f = function
  | [] -> invalid_arg "Amplification: empty survey"
  | hd :: tl ->
    List.fold_left (fun best r -> if f r > f best then r else best) hd tl

let worst_amplification rows = worst_by (fun r -> r.amplification) rows
let worst_cpu_ratio rows = worst_by (fun r -> r.cpu_ratio) rows
