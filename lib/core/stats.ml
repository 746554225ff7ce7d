(* linear interpolation at [p] in [0,1] over an ascending, non-empty array *)
let interpolate p a =
  let n = Array.length a in
  if n = 1 then a.(0)
  else begin
    let pos = p *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor pos) in
    let hi = Int.min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    a.(lo) +. (frac *. (a.(hi) -. a.(lo)))
  end

(* In-place ascending heapsort in [Float.compare]'s order. [Array.sort]
   would box both floats it hands to the comparison on every step. *)
let sort_floats (a : float array) =
  let rec sift i len =
    let l = (2 * i) + 1 in
    if l < len then begin
      let c =
        if l + 1 < len && Float.compare a.(l + 1) a.(l) > 0 then l + 1 else l
      in
      if Float.compare a.(c) a.(i) > 0 then begin
        let t = a.(i) in
        a.(i) <- a.(c);
        a.(c) <- t;
        sift c len
      end
    end
  in
  let n = Array.length a in
  for i = (n / 2) - 1 downto 0 do
    sift i n
  done;
  for last = n - 1 downto 1 do
    let t = a.(0) in
    a.(0) <- a.(last);
    a.(last) <- t;
    sift 0 last
  done

let sorted_array what = function
  | [] -> invalid_arg what
  | xs ->
    let a = Array.of_list xs in
    sort_floats a;
    a

let percentile p xs = interpolate p (sorted_array "Stats.percentile: empty" xs)

let median xs = percentile 0.5 xs

let mean = function
  | [] -> invalid_arg "Stats.mean: empty"
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let min_max = function
  | [] -> invalid_arg "Stats.min_max: empty"
  | x :: rest ->
    List.fold_left (fun (lo, hi) v -> (Float.min lo v, Float.max hi v)) (x, x) rest

let median_int xs = median (List.map float_of_int xs)

let stddev = function
  | [] -> invalid_arg "Stats.stddev: empty"
  | [ _ ] -> 0.
  | xs ->
    let m = mean xs in
    let n = float_of_int (List.length xs) in
    sqrt
      (List.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0. xs
      /. (n -. 1.))

let percentiles ps xs =
  let a = sorted_array "Stats.percentiles: empty" xs in
  List.map (fun p -> interpolate p a) ps

(* Every resample is drawn into one float array and sorted in place, and
   the resampled percentiles fill another: a metrics campaign runs this
   for every distribution of every cell, and boxed-float lists here made
   it the campaign's largest source of allocation and promotion. *)
let bootstrap_ci ?(resamples = 200) ?(confidence = 0.95) ~seed p = function
  | [] -> invalid_arg "Stats.bootstrap_ci: empty"
  | [ x ] -> (x, x)
  | xs ->
    let a = Array.of_list xs in
    let n = Array.length a in
    let rng = Crypto.Drbg.create ~seed:("stats-bootstrap/" ^ seed) in
    let r = Array.make n 0. in
    let stats =
      Array.init resamples (fun _ ->
          for i = 0 to n - 1 do
            r.(i) <- a.(Crypto.Drbg.uniform rng n)
          done;
          sort_floats r;
          interpolate p r)
    in
    sort_floats stats;
    let alpha = (1. -. confidence) /. 2. in
    (interpolate alpha stats, interpolate (1. -. alpha) stats)
