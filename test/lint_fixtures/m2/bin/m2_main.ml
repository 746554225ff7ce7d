(* M2 fixture: the root file of this tree. *)

let main () =
  match Fixture.M2_lib.run Sys.argv.(1) with
  | Ok n -> print_int n
  | Error c -> prerr_char c

let () = main ()
