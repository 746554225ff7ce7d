(* A small domain pool sized for campaign grids: tasks are coarse (one
   task = one 60-virtual-second experiment, milliseconds to seconds of
   host time), so one shared atomic cursor is all the scheduling they
   need. Every worker claims the next unclaimed index until the cursor
   passes the end; a worker that draws a long cell simply claims fewer,
   and one that runs out of indices returns instead of waiting. The
   caller's domain participates as worker 0, so [jobs = n] uses exactly
   [n] domains in total.

   A raising task stops every worker from claiming more and re-raises in
   the caller once the tasks in flight finish — a backstop only:
   campaign cells are wrapped into [result] values by [Exec] before they
   get here, so a failing cell degrades one grid entry instead of
   killing the whole campaign. *)

let default_jobs () = max 1 (Domain.recommended_domain_count ())

let map ~jobs ?on_done f inputs =
  let inputs = Array.of_list inputs in
  let n = Array.length inputs in
  let progress = Mutex.create () in
  let completed = ref 0 in
  let finish i result =
    (match on_done with
    | None -> ()
    | Some g ->
      Mutex.protect progress (fun () ->
          incr completed;
          g ~completed:!completed ~total:n inputs.(i) result));
    result
  in
  let results = Array.make n None in
  let next = Atomic.make 0 in
  let failure = Atomic.make None in
  let rec worker () =
    if Atomic.get failure = None then begin
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        (try results.(i) <- Some (finish i (f inputs.(i)))
         with e ->
           let bt = Printexc.get_raw_backtrace () in
           ignore (Atomic.compare_and_set failure None (Some (e, bt))));
        worker ()
      end
    end
  in
  let domains =
    List.init (max 0 (min jobs n - 1)) (fun _ -> Domain.spawn worker)
  in
  worker ();
  List.iter Domain.join domains;
  (match Atomic.get failure with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ());
  Array.to_list
    (Array.map
       (function
         | Some r -> r
         | None -> invalid_arg "Pool.map: unfinished task")
       results)
