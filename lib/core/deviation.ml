type cell = {
  kem : string;
  sa : string;
  measured_ms : float;
  expected_ms : float;
  deviation_ms : float;
}

type grid = {
  level : int;
  buffering : Tls.Config.buffering;
  cells : cell list;
  failed : (string * string) list;
}

let total outcome = Experiment.median_of (fun s -> s.Experiment.total_ms) outcome

let analyze ?(buffering = Tls.Config.Optimized_push) ?(seed = "deviation")
    ?(exec = Exec.sequential ()) level =
  let kems = Pqc.Registry.level_group level `Kem in
  let sigs = Pqc.Registry.level_group_sigs level in
  let baseline_kem = Pqc.Registry.baseline_kem in
  let baseline_sig = Pqc.Registry.baseline_sig in
  (* the KA-only / SA-only marginals overlap the grid when a baseline is
     a member of its level group, so measure each distinct pair once *)
  let pairs =
    (baseline_kem, baseline_sig)
    :: List.map (fun k -> (k, baseline_sig)) kems
    @ List.map (fun s -> (baseline_kem, s)) sigs
    @ List.concat_map (fun k -> List.map (fun s -> (k, s)) sigs) kems
  in
  let distinct =
    List.sort_uniq
      (fun (k1, s1) (k2, s2) ->
        compare
          (k1.Pqc.Kem.name, s1.Pqc.Sigalg.name)
          (k2.Pqc.Kem.name, s2.Pqc.Sigalg.name))
      pairs
  in
  let results =
    Exec.cells exec
      (List.map (fun (k, s) -> Experiment.spec ~buffering ~seed k s) distinct)
  in
  (* only completed cells enter the lookup table; a combination whose
     own measurement or either marginal (or the baseline) failed lands
     in [failed] instead of aborting the whole grid *)
  let table =
    List.concat
      (List.map2
         (fun (k, s) r ->
           match r with
           | Ok o -> [ ((k.Pqc.Kem.name, s.Pqc.Sigalg.name), total o) ]
           | Error _ -> [])
         distinct results)
  in
  let measure k s =
    List.assoc_opt (k.Pqc.Kem.name, s.Pqc.Sigalg.name) table
  in
  let m_base = measure baseline_kem baseline_sig in
  let cells, failed =
    List.partition_map Fun.id
      (List.concat_map
         (fun k ->
           List.map
             (fun s ->
               match
                 ( measure k s, measure k baseline_sig,
                   measure baseline_kem s, m_base )
               with
               | Some measured, Some mk, Some ms, Some mb ->
                 let expected = mk +. ms -. mb in
                 Either.Left
                   { kem = k.Pqc.Kem.name;
                     sa = s.Pqc.Sigalg.name;
                     measured_ms = measured;
                     expected_ms = expected;
                     deviation_ms = expected -. measured }
               | _ -> Either.Right (k.Pqc.Kem.name, s.Pqc.Sigalg.name))
             sigs)
         kems)
  in
  { level; buffering; cells; failed }

let improvement ~optimized ~default =
  List.filter_map
    (fun c ->
      match
        List.find_opt
          (fun d -> d.kem = c.kem && d.sa = c.sa)
          default.cells
      with
      | Some d -> Some (c.kem, c.sa, d.measured_ms -. c.measured_ms)
      | None -> None)
    optimized.cells
