(** The suppression channel: in-source attributes, each carrying a
    mandatory reason so every exception to a rule is auditable.
    [[@lint.allow "RULE" "reason"]] on an expression or
    [[@@lint.allow "RULE" "reason"]] on a binding scopes the exception
    to that node; a floating [[@@@lint.allow "RULE" "reason"]] covers
    the whole file.

    A [lint.allow] attribute with a missing or empty reason is itself a
    violation (rule [LINT]). *)

type scope = {
  s_rule : string; (* "*" matches every rule *)
  s_file : string;
  s_line_start : int;
  s_line_end : int;
}

val scopes_of_source : Source.t -> scope list * Diag.t list
(** Collect attribute scopes; malformed [lint.allow] attributes come
    back as [LINT] diagnostics. *)

val suppressed : scopes:scope list -> Diag.t -> bool
(** Does an attribute scope cover the finding? *)
