(* The untraced run: whole catalog campaigns exactly as [pqtls-bench run]
   drives them, timed from outside, with the outputs checked. *)

open Common

(* One domain. On a shared host with two vCPUs, a second domain makes
   every campaign wait on whichever vCPU another tenant holds (Pool's
   work-stealing joins and the runtime's stop-the-world minor
   collections), and one domain runs the cells in order, which
   [fastest_wall] relies on. *)
let jobs = 1

type campaign = {
  wall_s : float;
  alloc_bytes : float;
  report : string;
  artifact : string;
  cells : int;
  handshakes : int;  (** sampled handshakes plus completed farm connections *)
  failed : int;
  executed : int;  (** cells simulated rather than read from the cache *)
  from_cache : int;
  cell_walls : float list;  (** [Exec]'s per-cell host seconds *)
}

(* One campaign on a fresh context. The timed region ends once the
   metrics artifact is serialized, as it does for [pqtls-bench run
   --metrics]. *)
let run ~seed ?cache_dir (w : Manifest.workload) =
  let exec = Core.Exec.create ~jobs ?cache_dir () in
  let metrics = exec.Core.Exec.metrics in
  let a0 = allocated_bytes () in
  let t0 = Core.Clock.now_s () in
  let report =
    String.concat ""
      (List.map
         (fun name ->
           Core.Metrics.note_experiment metrics name;
           Core.Catalog.run ~seed ~exec name)
         w.Manifest.experiments)
  in
  let artifact = Core.Metrics.artifact metrics ~seed in
  let json = Core.Metrics.to_json_string artifact in
  let wall_s = Core.Clock.elapsed_s t0 in
  let alloc_bytes = allocated_bytes () -. a0 in
  let handshakes =
    List.fold_left
      (fun acc (c : Core.Metrics.cell) ->
        match c.Core.Metrics.m_data with
        | Ok d -> acc + d.Core.Metrics.cd_total.Core.Metrics.d_n
        | Error _ -> acc)
      0 artifact.Core.Metrics.a_cells
    + List.fold_left
        (fun acc (c : Core.Metrics.farm_cell) ->
          match c.Core.Metrics.f_data with
          | Ok d -> acc + d.Core.Metrics.fd_completed
          | Error _ -> acc)
        0 artifact.Core.Metrics.a_farm_cells
  in
  { wall_s; alloc_bytes; report; artifact = json;
    cells =
      List.length artifact.Core.Metrics.a_cells
      + List.length artifact.Core.Metrics.a_farm_cells;
    handshakes;
    failed = Core.Exec.failed_count exec;
    executed = Core.Metrics.counter metrics "cells_executed";
    from_cache = Core.Metrics.counter metrics "cells_from_cache";
    cell_walls = Core.Metrics.observations metrics "cell_wall_s" }

(* Checks that hold for any seed, on the first campaign of a run. *)
let check_first ~seed (w : Manifest.workload) c =
  if c.failed > 0 then fail "%s: %d cells failed" w.Manifest.name c.failed;
  check_golden ~seed w "report" c.report;
  check_golden ~seed w "artifact" c.artifact;
  match Core.Metrics.of_json_string c.artifact with
  | Error e -> fail "%s: artifact does not parse: %s" w.Manifest.name e
  | Ok p ->
    let _, issues = Core.Metrics.against_paper p in
    List.iter (fail "%s: against-paper: %s" w.Manifest.name) issues

let check_same (w : Manifest.workload) ~what first c =
  if c.report <> first.report then
    fail "%s: %s report differs from the first campaign's" w.Manifest.name what;
  if c.artifact <> first.artifact then
    fail "%s: %s artifact differs from the first campaign's" w.Manifest.name
      what

(* Campaigns repeat until the next one would overrun [seconds]; at least
   one always runs, and [between] runs after each. A cached workload
   first fills its cache in an untimed pass, which the timed campaigns
   must then reproduce without simulating a single cell. *)
let campaigns ~seed ~seconds ?(between = ignore) (w : Manifest.workload) =
  let cache_dir =
    if w.Manifest.cached then Some (fresh_dir (w.Manifest.name ^ "-cache"))
    else None
  in
  let fill = Option.map (fun dir -> run ~seed ~cache_dir:dir w) cache_dir in
  let rec loop acc spent =
    let c = run ~seed ?cache_dir w in
    Printf.eprintf "  %s campaign %d: %.3f s\n%!" w.Manifest.name
      (List.length acc + 1) c.wall_s;
    between ();
    let acc = c :: acc and spent = spent +. c.wall_s in
    let typical = median (List.map (fun c -> c.wall_s) acc) in
    if spent +. typical > float_of_int seconds then List.rev acc
    else loop acc spent
  in
  let campaigns = loop [] 0. in
  Option.iter rm_rf cache_dir;
  let first = Option.value fill ~default:(List.hd campaigns) in
  check_first ~seed w first;
  List.iter
    (fun c ->
      check_same w ~what:"repeated" first c;
      if w.Manifest.cached && (c.executed > 0 || c.from_cache = 0) then
        fail "%s: %d cells executed, %d read from the cache" w.Manifest.name
          c.executed c.from_cache)
    campaigns;
  campaigns

(* Set-up as a user pays it per invocation: process start, runtime and
   module initialisation, then [Exec.create] (which digests the
   executable when a cache is attached). Measured in fresh processes so
   it can be repeated, in rounds of three: one before the campaigns, one
   after each, and more at the end up to 30 probes, so the median spans
   the run rather than one moment of a shared machine. *)
let setup_probe (w : Manifest.workload) dir =
  ignore
    (Core.Exec.create ~jobs
       ?cache_dir:(if w.Manifest.cached then Some dir else None)
       ())

let setup_probes (w : Manifest.workload) =
  let exe = Sys.executable_name in
  List.init 3 (fun i ->
      let dir = fresh_dir (Printf.sprintf "probe%d" i) in
      let t0 = Core.Clock.now_s () in
      let pid =
        Unix.create_process exe
          [| exe; "setup-probe"; w.Manifest.name; dir |]
          Unix.stdin Unix.stderr Unix.stderr
      in
      let _, status = Unix.waitpid [] pid in
      let dt = Core.Clock.elapsed_s t0 in
      if status <> Unix.WEXITED 0 then
        fail "%s: set-up probe exited abnormally" w.Manifest.name;
      rm_rf dir;
      dt)

(* A campaign's wall time assembled from its fastest parts: each cell at
   its fastest over the run's campaigns, plus the fastest serial phase
   (recording, rendering, serializing). Other tenants of a shared host
   make this memory-bound code take up to twice as long, for seconds at
   a time, so a whole campaign's time varies with how long they were
   busy; the
   fastest repeat of each part is what the campaign costs when they were
   not, and it moves far less from run to run. *)
let fastest_wall campaigns =
  let sum = List.fold_left ( +. ) 0. in
  let fastest = List.fold_left Float.min infinity in
  let rec by_cell = function
    | [] :: _ | [] -> []
    | walls -> List.map List.hd walls :: by_cell (List.map List.tl walls)
  in
  let walls = List.map (fun c -> c.cell_walls) campaigns in
  fastest (List.map (fun c -> c.wall_s -. sum c.cell_walls) campaigns)
  +. sum (List.map fastest (by_cell walls))

let measure ~seed ~seconds (w : Manifest.workload) =
  let setup = ref [] in
  let round () = setup := setup_probes w @ !setup in
  round ();
  let campaigns = campaigns ~seed ~seconds ~between:round w in
  while List.length !setup < 30 do
    round ()
  done;
  let wall = fastest_wall campaigns in
  let values =
    [ ("wall_s", wall);
      ("hs_per_s", float_of_int (List.hd campaigns).handshakes /. wall);
      ("alloc_gb", median (List.map (fun c -> c.alloc_bytes) campaigns) /. 1e9);
      ("peak_rss_mb", peak_rss_mb ());
      ("setup_s", median !setup) ]
  in
  let sum f = List.fold_left (fun acc c -> acc + f c) 0 campaigns in
  (sum (fun c -> c.cells), sum (fun c -> c.failed), values)
