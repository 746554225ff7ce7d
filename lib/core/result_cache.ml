(* Disk memoization of completed experiment cells. Only successful
   outcomes are stored (Exec never caches failures), so an entry's
   presence means the cell genuinely finished under this binary.

   One file per cell under the cache directory, named by the SHA-256 of
   the cell's full parameter fingerprint plus a fingerprint of the
   running executable — so a rebuild that changes *any* code invalidates
   everything, which is the only safe default for Marshal-ed payloads.
   Every cell kind shares the directory; its tag is both the file
   extension and part of the magic, since Marshal is untyped and two
   outcome types must never be able to read each other's files.

   Writes go through a unique temp file followed by [Sys.rename], so
   concurrent domains (or concurrent processes sharing a cache
   directory) never observe a torn entry; a corrupt or alien file is
   treated as a miss and overwritten. *)

let magic (kind : _ Cell.kind) = "pqtls-cache-2/" ^ kind.Cell.tag

type t = { dir : string; code_fingerprint : string }

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let create ~dir =
  mkdir_p dir;
  let code_fingerprint =
    try Digest.to_hex (Digest.file Sys.executable_name)
    with Sys_error _ -> "no-executable"
  in
  { dir; code_fingerprint }

let kind_key t (kind : _ Cell.kind) spec =
  Crypto.Bytesx.to_hex
    (Crypto.Sha256.digest
       (kind.Cell.fingerprint spec ^ "|code=" ^ t.code_fingerprint))

let path t (kind : _ Cell.kind) k = Filename.concat t.dir (k ^ "." ^ kind.Cell.tag)

let kind_find (type o) t (kind : (_, o) Cell.kind) k : o option =
  let read () =
    let ic = open_in_bin (path t kind k) in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let m, (o : o) = Marshal.from_channel ic in
        if m <> magic kind then None else Some o)
  in
  try read () with Sys_error _ | End_of_file | Failure _ -> None

let kind_store (type o) t (kind : (_, o) Cell.kind) k (o : o) =
  let final = path t kind k in
  let tmp =
    Printf.sprintf "%s.%d.%d.tmp" final (Unix.getpid ())
      (Domain.self () :> int)
  in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> Marshal.to_channel oc (magic kind, o) []);
  Sys.rename tmp final

let key t = kind_key t Cell.standard
let find t = kind_find t Cell.standard
let store t = kind_store t Cell.standard
let farm_key t = kind_key t Cell.farm
let find_farm t = kind_find t Cell.farm
let store_farm t = kind_store t Cell.farm
