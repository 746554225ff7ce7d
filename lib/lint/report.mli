(** Rendering a lint run for people ([text]), for CI ([json]) and for
    GitHub code scanning ([sarif]). All renderings are pure functions
    of the (already sorted) inputs, so a lint report is as reproducible
    as the artifacts it protects. *)

type format = Text | Json | Sarif

val json_string : Buffer.t -> string -> unit
(** Append a JSON string literal, escaping quotes, backslashes and
    every control byte. *)

val format_of_string : string -> format option

val render :
  format ->
  rules:Rule.t list ->
  files:int ->
  errors:(string * string) list ->
  Diag.t list ->
  string
(** [errors] are parse failures (path, message); [rules] is the catalog
    the run used (embedded as metadata by the SARIF rendering, which
    maps each rule's severity to a SARIF level). The JSON rendering
    uses schema [pqtls-lint/1]:
    [{ "schema", "files", "violations": [...], "errors": [...] }]; the
    SARIF rendering is SARIF 2.1.0 with one run. *)
