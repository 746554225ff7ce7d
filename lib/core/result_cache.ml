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

   An entry is the kind's magic, the MD5 of the marshalled outcome, then
   the outcome. Marshal checks nothing about the bytes it reads, so a
   damaged payload would unmarshal to another outcome and change the
   artifact; the digest is checked first, and a mismatch is a miss that
   the re-executed cell overwrites.

   Writes go through a unique temp file followed by [Sys.rename], so
   concurrent domains (or concurrent processes sharing a cache
   directory) never observe a torn entry. *)

let magic (kind : _ Cell.kind) = "pqtls-cache-3/" ^ kind.Cell.tag

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

type miss = Absent | Damaged

(* The digest is computed over the channel and the payload unmarshalled
   from it, so a lookup allocates no copy of the entry. *)
let kind_find (type o) t (kind : (_, o) Cell.kind) k : (o, miss) result =
  let m = magic kind in
  let off = String.length m + 16 in
  let read ic =
    let head = really_input_string ic off in
    if
      String.starts_with ~prefix:m head
      && Digest.channel ic (in_channel_length ic - off)
         = String.sub head (String.length m) 16
    then begin
      seek_in ic off;
      Ok (Marshal.from_channel ic : o)
    end
    else Error Damaged
  in
  match In_channel.with_open_bin (path t kind k) read with
  | r -> r
  | exception Sys_error _ -> Error Absent
  | exception (End_of_file | Failure _ | Invalid_argument _) -> Error Damaged

let kind_store (type o) t (kind : (_, o) Cell.kind) k (o : o) =
  let final = path t kind k in
  let tmp =
    Printf.sprintf "%s.%d.%d.tmp" final (Unix.getpid ())
      (Domain.self () :> int)
  in
  let payload = Marshal.to_string o [] in
  Out_channel.with_open_bin tmp (fun oc ->
      output_string oc (magic kind);
      output_string oc (Digest.string payload);
      output_string oc payload);
  Sys.rename tmp final

let key t = kind_key t Cell.standard
let find t k = Result.to_option (kind_find t Cell.standard k)
let store t = kind_store t Cell.standard
let farm_key t = kind_key t Cell.farm
let find_farm t k = Result.to_option (kind_find t Cell.farm k)
let store_farm t = kind_store t Cell.farm
