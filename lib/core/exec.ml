(* The campaign execution context: how many domains, which result
   cache, retry budget, and whether to narrate progress.
   Catalog/Deviation/Whitebox/Amplification build their grids as
   [Experiment.spec] lists and hand them here; formatting stays
   sequential and cheap.

   Execution is fault-tolerant: a cell that raises is retried up to
   [retries] times with a deterministically derived per-attempt seed,
   and an exhausted budget yields [Error] instead of killing the
   campaign — renderers mark the cell and every completed neighbour
   survives. Failures are never written to the result cache. *)

type cell_error = {
  ce_message : string;
  ce_backtrace : string;
  ce_attempts : int;
  ce_elapsed_s : float;
}

type cell_result = (Experiment.outcome, cell_error) result

type t = {
  jobs : int;
  cache : Result_cache.t option;
  progress : bool;
  retries : int;
  fail_cell : string option;
  started : float;
  trace : Trace.Store.t option;
  metrics : Metrics.t;
}

let create ~jobs ?cache_dir ?(progress = false) ?(retries = 1) ?fail_cell
    ?trace () =
  Printexc.record_backtrace true;
  { jobs = max 1 jobs;
    cache = Option.map (fun dir -> Result_cache.create ~dir) cache_dir;
    progress;
    retries = max 0 retries;
    fail_cell;
    started = Clock.now_s ();
    trace;
    metrics = Metrics.create () }

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

(* attempt 0 runs the spec verbatim (cache keys and historical outputs
   are unchanged); attempt [k > 0] reseeds the cell's DRBG through the
   seed string, so retry results depend only on the spec and the attempt
   number — never on scheduling or [jobs] *)
let attempt_spec (kind : _ Cell.kind) spec k =
  if k = 0 then spec
  else kind.Cell.reseed (fun seed -> Printf.sprintf "%s#retry%d" seed k) spec

let run_cell t (kind : _ Cell.kind) ?trace spec =
  (* volatile telemetry only (ce_elapsed_s, cell_wall_s): host time never
     reaches a deterministic artifact, see Clock *)
  let t0 = Clock.now_s () in
  let label = kind.Cell.label spec in
  let rec attempt k =
    (* a retried attempt restarts the cell from scratch, so its trace
       does too — only the completing attempt's events survive *)
    Option.iter Trace.Buf.clear trace;
    match
      (match t.fail_cell with
      | Some needle when contains ~needle label ->
        failwith ("injected failure for " ^ label)
      | _ -> ());
      kind.Cell.run ?trace (attempt_spec kind spec k)
    with
    | o ->
      Metrics.incr t.metrics "cells_ok";
      if k > 0 then Metrics.incr t.metrics "cells_retried";
      Ok o
    | exception e ->
      let bt = Printexc.get_backtrace () in
      if k < t.retries then attempt (k + 1)
      else begin
        Metrics.incr t.metrics "cells_failed";
        Error
          { ce_message = Printexc.to_string e;
            ce_backtrace = bt;
            ce_attempts = k + 1;
            ce_elapsed_s = Clock.elapsed_s t0 }
      end
  in
  attempt 0

(* the grid runner every cell kind shares *)
let grid t (kind : _ Cell.kind) record specs =
  (* one buffer per cell of a traced kind, allocated in spec order
     before the fan-out and merged into the store in that same order
     afterwards, so the trace is bit-identical whatever [jobs]. A cell
     served from the cache keeps its (empty, labelled) buffer: cache
     hits execute nothing. *)
  let bufs =
    match t.trace with
    | Some _ when kind.Cell.traced ->
      List.map
        (fun sp -> Some (Trace.Buf.create ~label:(kind.Cell.label sp) ()))
        specs
    | _ -> List.map (fun _ -> None) specs
  in
  let run (spec, trace) =
    let t0 = Clock.now_s () in
    let result =
      match t.cache with
      | None -> (run_cell t kind ?trace spec, `Miss)
      | Some c -> (
        let k = Result_cache.kind_key c kind spec in
        match Result_cache.kind_find c kind k with
        | Some o ->
          Metrics.incr t.metrics "cells_ok";
          (Ok o, `Hit)
        | None ->
          let r = run_cell t kind ?trace spec in
          (* failures are never cached: the next run re-executes the cell
             instead of replaying the error *)
          (match r with
          | Ok o -> Result_cache.kind_store c kind k o
          | Error _ -> ());
          (r, `Miss))
    in
    (* self-telemetry: volatile (host wall clock, scheduling-dependent),
       so it feeds the registry and the stderr health summary only —
       never the deterministic artifact *)
    Metrics.observe t.metrics "cell_wall_s" (Clock.elapsed_s t0);
    Metrics.incr t.metrics
      (match snd result with
      | `Hit -> "cells_from_cache"
      | `Miss -> "cells_executed");
    result
  in
  let on_done =
    if not t.progress then None
    else
      Some
        (fun ~index:_ ~completed ~total (spec, _) (r, status) elapsed ->
          let note =
            match (r, status) with
            | Ok _, `Hit -> "  (cached)"
            | Ok _, `Miss -> ""
            | Error e, _ ->
              Printf.sprintf "  FAILED after %d attempt%s: %s" e.ce_attempts
                (if e.ce_attempts = 1 then "" else "s")
                e.ce_message
          in
          Printf.eprintf "  [%*d/%d] %-45s %6.2fs%s\n%!"
            (String.length (string_of_int total))
            completed total (kind.Cell.label spec) elapsed note)
  in
  let results =
    Pool.map ~jobs:t.jobs ?on_done run (List.combine specs bufs)
  in
  (match t.trace with
  | None -> ()
  | Some store -> List.iter (Option.iter (Trace.Store.add store)) bufs);
  (* record cell summaries in spec order from this (coordinating)
     domain, mirroring the trace-buffer merge above: the artifact's cell
     order is a function of the grids alone, never of [jobs] *)
  List.iter2
    (fun spec (r, _status) ->
      record t.metrics spec (Result.map_error (fun e -> e.ce_message) r))
    specs results;
  List.map fst results

let cells t = grid t Cell.standard Metrics.record_cell

type farm_cell_result = (Experiment.farm_outcome, cell_error) result

let farm_cells t = grid t Cell.farm Metrics.record_farm_cell

let ok_count t = Metrics.counter t.metrics "cells_ok"
let retried_count t = Metrics.counter t.metrics "cells_retried"
let failed_count t = Metrics.counter t.metrics "cells_failed"

let cache_summary t =
  Option.map
    (fun _ ->
      Printf.sprintf "cache: %d cells reused, %d executed"
        (Metrics.counter t.metrics "cells_from_cache")
        (Metrics.counter t.metrics "cells_executed"))
    t.cache

let health_summary t =
  let walls = Metrics.observations t.metrics "cell_wall_s" in
  let total_wall = List.fold_left ( +. ) 0. walls in
  let max_wall = List.fold_left Float.max 0. walls in
  Printf.sprintf
    "campaign health: %d cells ok (%d retried), %d failed%s; wall %.1f s; \
     cells: %d fresh, %d cached; cell wall %.1f s total, %.1f s max"
    (ok_count t) (retried_count t) (failed_count t)
    (match cache_summary t with None -> "" | Some line -> "; " ^ line)
    (Clock.elapsed_s t.started)
    (Metrics.counter t.metrics "cells_executed")
    (Metrics.counter t.metrics "cells_from_cache")
    total_wall max_wall
