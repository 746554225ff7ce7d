(* Helpers shared by the untraced and the traced run: host-resource
   readings, scratch directories, the golden digests, the correctness
   check log and the one-line JSON result. *)

let median = Core.Stats.median

(* Bytes allocated so far by this domain and every joined one. Native
   counters only advance at collection boundaries, so the minor heap is
   flushed first; callers read this outside timed regions. *)
let allocated_bytes () =
  Gc.minor ();
  let s = Gc.quick_stat () in
  (s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words)
  *. float_of_int (Sys.word_size / 8)

let peak_rss_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | status ->
    String.split_on_char '\n' status
    |> List.find_map (fun line ->
           match String.split_on_char ':' line with
           | [ "VmHWM"; v ] ->
             Scanf.sscanf_opt (String.trim v) "%f kB" (fun kb -> kb /. 1024.)
           | _ -> None)
    |> Option.value ~default:nan
  | exception Sys_error _ -> nan

(* scratch space for caches, probes and Chrome traces, inside the build
   directory that run.sh uses *)
let work_dir = Filename.concat ".bench_build" "perf"

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let fresh_dir tag =
  let dir =
    Filename.concat work_dir (Printf.sprintf "%s-%d" tag (Unix.getpid ()))
  in
  rm_rf dir;
  dir

(* ---- correctness --------------------------------------------------------- *)

let failures = ref []

let fail fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("check failed: " ^ m);
      failures := m :: !failures)
    fmt

let md5 s = Digest.to_hex (Digest.string s)

(* [golden/<workload>] holds "report <md5>" and "artifact <md5>" lines
   for seed pqtls; other seeds have no goldens. *)
let golden_seed = "pqtls"

let check_golden ~seed (w : Manifest.workload) kind contents =
  if seed = golden_seed then begin
    let path = Filename.concat "bench/perf/golden" w.Manifest.name in
    let expected =
      match In_channel.with_open_text path In_channel.input_lines with
      | lines ->
        List.find_map
          (fun l ->
            match String.split_on_char ' ' l with
            | [ k; v ] when k = kind -> Some v
            | _ -> None)
          lines
      | exception Sys_error _ -> None
    in
    let actual = md5 contents in
    match expected with
    | Some e when e = actual -> ()
    | e ->
      fail "%s %s md5 at seed %s: expected %s, got %s (update %s if the \
            change is intended)"
        w.Manifest.name kind seed
        (Option.value e ~default:"(none)")
        actual path
  end

(* ---- the result line ----------------------------------------------------- *)

let print_result ~attempted ~failed (specs : Manifest.metric list) values =
  let field (m : Manifest.metric) =
    let v =
      match List.assoc_opt m.Manifest.m_name values with
      | Some v when Float.is_finite v -> v
      | Some _ | None ->
        fail "metric %s has no finite value" m.Manifest.m_name;
        0.
    in
    Printf.eprintf "  %-32s %14.6g %s\n" m.Manifest.m_name v m.Manifest.m_unit;
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.Manifest.m_name
      (Core.Json.float_repr v) m.Manifest.m_unit
  in
  let fields = List.map field specs in
  flush stderr;
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (!failures = []) attempted failed
    (String.concat ", " fields)
