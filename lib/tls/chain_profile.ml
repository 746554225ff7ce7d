type level = Leaf_alg | Named of string

type t = {
  name : string;
  label : string;
  intermediates : level list;
  root : level;
  description : string;
}

let default =
  { name = "default";
    label = "leaf-only";
    intermediates = [];
    root = Leaf_alg;
    description =
      "Leaf certificate only, anchored directly at a CA key of the \
       campaign SA (the paper's Section 5 setup)." }

let classical_shape =
  { name = "classical-shape";
    label = "web-PKI shape";
    intermediates = [ Leaf_alg ];
    root = Leaf_alg;
    description =
      "Root -> intermediate -> leaf, every level signed with the campaign \
       SA: the common web-PKI shape, so the wire now also carries the \
       intermediate." }

let mldsa_all =
  { name = "mldsa-all";
    label = "ML-DSA CAs";
    intermediates = [ Named "dilithium2" ];
    root = Named "dilithium3";
    description =
      "ML-DSA at both CA levels (dilithium2 intermediate under a \
       dilithium3 root); only the leaf varies with the campaign SA." }

let slhdsa_root =
  { name = "slhdsa-root";
    label = "SLH-DSA root";
    intermediates = [ Named "dilithium2" ];
    root = Named "sphincs128";
    description =
      "Conservative hash-based root (sphincs128) over a dilithium2 \
       intermediate: the placement the signature-placement paper \
       recommends, since root signatures never cross the wire." }

let mixed_acme =
  { name = "mixed-acme";
    label = "enterprise ACME";
    intermediates = [ Named "dilithium2"; Named "dilithium3" ];
    root = Named "sphincs192";
    description =
      "Depth-4 enterprise/ACME hierarchy: two ML-DSA intermediates under \
       an offline sphincs192 root, so two intermediates ride in the \
       server flight." }

let all = [ default; classical_shape; mldsa_all; slhdsa_root; mixed_acme ]

let find name =
  match List.find_opt (fun p -> p.name = name) all with
  | Some p -> p
  | None ->
    invalid_arg
      (Printf.sprintf "Chain_profile.find: unknown profile %S (have %s)" name
         (String.concat ", " (List.map (fun p -> p.name) all)))

let is_default p = p.name = default.name

(* root + intermediates + leaf *)
let depth p = 2 + List.length p.intermediates
