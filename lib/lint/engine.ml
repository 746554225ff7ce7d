let rules =
  [ Rule_wallclock.rule;
    Rule_hashtbl_order.rule;
    Rule_consttime.rule;
    Rule_secret_flow.rule;
    Rule_global_state.rule;
    Rule_domain_race.rule;
    Rule_unsafe.rule;
    Rule_interfaces.rule;
    Rule_unreachable.rule ]

let find_rule name =
  List.find_opt (fun (r : Rule.t) -> r.Rule.name = name) rules

let run ?(entries = []) ?(rules = rules) sources =
  let scopes, malformed =
    List.fold_left
      (fun (scopes, bad) src ->
        let s, b = Allow.scopes_of_source src in
        (s @ scopes, b @ bad))
      ([], []) sources
  in
  let findings =
    List.concat_map (fun (r : Rule.t) -> r.Rule.check sources) rules
  in
  let kept =
    List.filter
      (fun d -> not (Allow.suppressed ~scopes ~entries d))
      findings
  in
  List.sort Diag.compare (malformed @ kept)
