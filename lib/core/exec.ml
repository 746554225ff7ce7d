(* The campaign execution context: how many domains, which result
   cache, and whether to narrate progress.
   Catalog/Deviation/Whitebox/Amplification build their grids as
   [Experiment.spec] lists and hand them here; formatting stays
   sequential and cheap.

   Execution is fault-tolerant: a cell runs once, and a cell that
   raises yields [Error] instead of killing the campaign — renderers
   mark the cell and every completed neighbour survives. Failures are
   never written to the result cache. *)

type cell_result = (Metrics.cell_data, string) result

type t = {
  jobs : int;
  cache : Result_cache.t option;
  progress : bool;
  fail_cell : string option;
  started : float;
  trace : Trace.Store.t option;
  metrics : Metrics.t;
}

let create ~jobs ?cache_dir ?(progress = false) ?fail_cell ?trace () =
  Printexc.record_backtrace true;
  { jobs = max 1 jobs;
    cache = Option.map (fun dir -> Result_cache.create ~dir) cache_dir;
    progress;
    fail_cell;
    started = Clock.now_s ();
    trace;
    metrics = Metrics.create () }

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

let run_cell t (kind : _ Cell.kind) ?trace spec =
  let label = kind.Cell.label spec in
  match
    (match t.fail_cell with
    | Some needle when contains ~needle label ->
      failwith ("injected failure for " ^ label)
    | _ -> ());
    kind.Cell.run ?trace spec
  with
  | o ->
    Metrics.incr t.metrics "cells_ok";
    Ok o
  | exception e ->
    Metrics.incr t.metrics "cells_failed";
    Error (Printexc.to_string e)

(* the grid runner every cell kind shares *)
let grid t (kind : _ Cell.kind) summarize find specs =
  (* Decided serially before the fan-out, in spec order: a cell runs
     when its fingerprint occurs first in the grid and the registry does
     not hold it yet; every other spec is served from the registry. A
     traced kind also gets one buffer per run cell, merged into the
     store in spec order afterwards, so the trace is bit-identical
     whatever [jobs]. A cell served from the cache keeps its (empty,
     labelled) buffer: cache hits execute nothing. *)
  let firsts = Hashtbl.create 64 in
  let tasks =
    List.filter_map
      (fun spec ->
        let id = kind.Cell.fingerprint spec in
        if Hashtbl.mem firsts id || Metrics.recorded t.metrics id then None
        else begin
          Hashtbl.add firsts id ();
          let trace =
            match t.trace with
            | Some _ when kind.Cell.traced ->
              Some (Trace.Buf.create ~label:(kind.Cell.label spec) ())
            | _ -> None
          in
          Some (spec, trace)
        end)
      specs
  in
  let run (spec, trace) =
    let t0 = Clock.now_s () in
    let r, status =
      match t.cache with
      | None -> (run_cell t kind ?trace spec, `Miss)
      | Some c -> (
        let k = Result_cache.kind_key c kind spec in
        match Result_cache.kind_find c kind k with
        | Ok o ->
          Metrics.incr t.metrics "cells_ok";
          (Ok o, `Hit)
        | Error miss ->
          if miss = Result_cache.Damaged then
            Metrics.incr t.metrics "cache_damaged";
          let r = run_cell t kind ?trace spec in
          (* failures are never cached: the next run re-executes the cell
             instead of replaying the error; a success overwrites a
             damaged entry *)
          (match r with
          | Ok o -> Result_cache.kind_store c kind k o
          | Error _ -> ());
          (r, `Miss))
    in
    (* the summary is a pure function of the spec and the result, so it
       is drawn here, on whichever domain ran or fetched the cell, and
       it is all that leaves the task: the outcome dies with it *)
    let summary = summarize spec r in
    let note =
      match (r, status) with
      | Ok _, `Hit -> "  (cached)"
      | Ok _, `Miss -> ""
      | Error message, _ -> "  FAILED: " ^ message
    in
    (* self-telemetry: volatile (host wall clock, scheduling-dependent),
       so it feeds the registry, the progress line and the stderr health
       summary only — never the deterministic artifact *)
    let wall = Clock.elapsed_s t0 in
    Metrics.observe t.metrics "cell_wall_s" wall;
    Metrics.incr t.metrics
      (match status with
      | `Hit -> "cells_from_cache"
      | `Miss -> "cells_executed");
    (summary, note, wall)
  in
  let on_done =
    if not t.progress then None
    else
      Some
        (fun ~completed ~total (spec, _) (_, note, wall) ->
          Printf.eprintf "  [%*d/%d] %-45s %6.2fs%s\n%!"
            (String.length (string_of_int total))
            completed total (kind.Cell.label spec) wall note)
  in
  let results = Pool.map ~jobs:t.jobs ?on_done run tasks in
  (match t.trace with
  | None -> ()
  | Some store ->
    List.iter (fun (_, trace) -> Option.iter (Trace.Store.add store) trace)
      tasks);
  (* register in spec order from this (coordinating) domain, mirroring
     the trace-buffer merge above: the artifact's cell order and [#k]
     keys are a function of the grids alone, never of [jobs]. Every spec
     then reads its cell's registered data, whether this grid ran the
     cell or an earlier one did. *)
  List.iter (fun (summary, _, _) -> Metrics.register t.metrics summary) results;
  List.map (fun spec -> find t.metrics (kind.Cell.fingerprint spec)) specs

let cells t = grid t Cell.standard Metrics.summarize_cell Metrics.find_cell

type farm_cell_result = (Metrics.farm_cell_data, string) result

let farm_cells t =
  grid t Cell.farm Metrics.summarize_farm_cell Metrics.find_farm_cell

let ok_count t = Metrics.counter t.metrics "cells_ok"
let failed_count t = Metrics.counter t.metrics "cells_failed"

let cache_summary t =
  Option.map
    (fun _ ->
      Printf.sprintf "cache: %d cells reused, %d executed%s"
        (Metrics.counter t.metrics "cells_from_cache")
        (Metrics.counter t.metrics "cells_executed")
        (match Metrics.counter t.metrics "cache_damaged" with
        | 0 -> ""
        | n -> Printf.sprintf ", %d damaged entries" n))
    t.cache

let health_summary t =
  let walls = Metrics.observations t.metrics "cell_wall_s" in
  let total_wall = List.fold_left ( +. ) 0. walls in
  let max_wall = List.fold_left Float.max 0. walls in
  Printf.sprintf
    "campaign health: %d cells ok, %d failed%s; wall %.1f s; cells: %d \
     fresh, %d cached; cell wall %.1f s total, %.1f s max"
    (ok_count t) (failed_count t)
    (match cache_summary t with None -> "" | Some line -> "; " ^ line)
    (Clock.elapsed_s t.started)
    (Metrics.counter t.metrics "cells_executed")
    (Metrics.counter t.metrics "cells_from_cache")
    total_wall max_wall
