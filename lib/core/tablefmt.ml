(* Shared plain-text table rendering, used by Catalog and Profile so
   every report formats failed cells and sim/paper pairs the same way. *)

let em_dash = "\xe2\x80\x94"

let dash n = String.make (max 0 (n - 1)) ' ' ^ em_dash

let or_dash w fmt f = function
  | Some v -> Printf.sprintf fmt (f v)
  | None -> dash w

let failed_suffix = function Some _ -> "" | None -> "  (cell failed)"

(* the first [List.length row] values, and the rest *)
let rec take row values =
  match (row, values) with
  | [], rest -> ([], rest)
  | _ :: row, v :: values ->
    let taken, rest = take row values in
    (v :: taken, rest)
  | _ :: _, [] -> invalid_arg "Tablefmt.chunks: fewer results than cells"

let chunks run rows =
  let rec cut rows values =
    match rows with
    | [] -> []
    | row :: rows ->
      let taken, rest = take row values in
      taken :: cut rows rest
  in
  cut rows (run (List.concat rows))

let fmt_paper v = if Float.is_nan v then "   -  " else Printf.sprintf "%6.2f" v

let buf_table title header rows =
  let b = Buffer.create 4096 in
  Buffer.add_string b (title ^ "\n");
  Buffer.add_string b (header ^ "\n");
  Buffer.add_string b (String.make (String.length header) '-' ^ "\n");
  List.iter (fun r -> Buffer.add_string b (r ^ "\n")) rows;
  Buffer.contents b
