(* Load-balancer front end of the farm: picks the server an arriving
   connection is handed to. Both policies are deterministic — ties in
   least-connections break toward the lowest index — so the assignment
   stream is a pure function of the arrival stream and the policy. *)

type policy = Round_robin | Least_connections

let policy_of_name = function
  | "round-robin" -> Round_robin
  | "least-connections" -> Least_connections
  | name -> invalid_arg ("Balancer.policy_of_name: unknown policy " ^ name)

type t = { policy : policy; servers : int; mutable cursor : int }

let create policy ~servers =
  if servers <= 0 then invalid_arg "Balancer.create: servers must be > 0";
  { policy; servers; cursor = 0 }

let pick t ~load =
  match t.policy with
  | Round_robin ->
    let s = t.cursor in
    t.cursor <- (t.cursor + 1) mod t.servers;
    s
  | Least_connections ->
    let best = ref 0 in
    for s = 1 to t.servers - 1 do
      if load s < load !best then best := s
    done;
    !best
