type t = {
  certs : Certificate.t list;
  issuers : Pqc.Sigalg.t list;
  leaf_alg : Pqc.Sigalg.t;
  anchor_key : string;
}

(* serial, validity, SKI/AKI, basicConstraints etc. in a real DER cert *)
let der_pad = String.make 10 '\x5a'

let resolve leaf_alg = function
  | Chain_profile.Leaf_alg -> leaf_alg
  | Chain_profile.Named n ->
    let a = Pqc.Registry.find_sig n in
    if leaf_alg.Pqc.Sigalg.mocked then Pqc.Sigalg.mocked a else a

let make profile ~leaf:alg rng =
  let root_alg = resolve alg profile.Chain_profile.root in
  let int_algs = List.map (resolve alg) profile.Chain_profile.intermediates in
  let n = List.length int_algs in
  (* deterministic DRBG stream: root keygen, intermediate keygens
     top-down, server keygen, then signatures top-down *)
  let root_kp = root_alg.Pqc.Sigalg.keygen rng in
  let ints_top_down =
    List.rev int_algs
    |> List.mapi (fun i (a : Pqc.Sigalg.t) ->
           ( Printf.sprintf "ca%d.pqtls.example" (n - i),
             a,
             a.Pqc.Sigalg.keygen rng ))
  in
  let server = alg.Pqc.Sigalg.keygen rng in
  let issue (issuer_name, (issuer_alg : Pqc.Sigalg.t), issuer_kp) ~subject
      ~public =
    let unsigned =
      { Certificate.subject;
        issuer = issuer_name;
        algorithm = issuer_alg.Pqc.Sigalg.name;
        public_key = public;
        tbs_extra = der_pad;
        signature = "" }
    in
    let signature =
      issuer_alg.Pqc.Sigalg.sign rng
        ~secret:issuer_kp.Pqc.Sigalg.secret
        (Certificate.tbs unsigned)
    in
    { unsigned with Certificate.signature }
  in
  (* walk top-down issuing each intermediate; returns the intermediate
     certificates in wire (leaf-first) order plus the leaf's issuer *)
  let rec go issuer = function
    | [] -> (issuer, [])
    | ((subject, _, kp) as level) :: lower ->
      let cert = issue issuer ~subject ~public:kp.Pqc.Sigalg.public in
      let leaf_issuer, below = go level lower in
      (leaf_issuer, below @ [ cert ])
  in
  (* a lone CA keeps the leaf-only setup's name *)
  let root_name = if n = 0 then "ca.pqtls.example" else "root.pqtls.example" in
  let leaf_issuer, int_certs = go (root_name, root_alg, root_kp) ints_top_down in
  let leaf =
    issue leaf_issuer ~subject:"server.pqtls.example"
      ~public:server.Pqc.Sigalg.public
  in
  ( { certs = leaf :: int_certs;
      issuers = int_algs @ [ root_alg ];
      leaf_alg = alg;
      anchor_key = root_kp.Pqc.Sigalg.public },
    server )

let leaf t = List.hd t.certs
let wire_certs t = t.certs
let issuer_algs t = t.issuers

let verify_against ~local received =
  List.length received = List.length local.certs
  && List.for_all2
       (fun (r : Certificate.t) (iss : Pqc.Sigalg.t) ->
         (* public algorithm names, not secret-adjacent bytes *)
         r.Certificate.algorithm = iss.Pqc.Sigalg.name)
       received local.issuers
  &&
  let rec walk certs issuers =
    match (certs, issuers) with
    | [], [] -> true
    | (c : Certificate.t) :: rest, (iss : Pqc.Sigalg.t) :: iss_rest ->
      let public =
        match rest with
        | (up : Certificate.t) :: _ -> up.Certificate.public_key
        | [] -> local.anchor_key
      in
      iss.Pqc.Sigalg.verify ~public ~msg:(Certificate.tbs c)
        c.Certificate.signature
      && walk rest iss_rest
    | _ -> false
  in
  walk received local.issuers

let verify t = verify_against ~local:t t.certs
[@@lint.allow "M2" "test: tls certificate chain, chain verification and \
                    chain default identity: a generated hierarchy verifies \
                    against its own anchor"]

type level_stat = {
  lv_name : string;
  lv_issuer_sa : string;
  lv_bytes : int;
  lv_verify_ms : float;
}

(* vec24 length prefix (3) + empty per-entry extensions vec16 (2) *)
let entry_overhead = 5

let levels t =
  List.mapi
    (fun i ((c : Certificate.t), (iss : Pqc.Sigalg.t)) ->
      { lv_name = (if i = 0 then "leaf" else Printf.sprintf "int%d" i);
        lv_issuer_sa = iss.Pqc.Sigalg.name;
        lv_bytes =
          Wire.parts_length (Certificate.encode_parts c) + entry_overhead;
        lv_verify_ms =
          (Pqc.Costs.sig_ iss.Pqc.Sigalg.name).Pqc.Costs.verify.Pqc.Costs.ms
      })
    (List.combine t.certs t.issuers)

let wire_bytes t = List.fold_left (fun acc l -> acc + l.lv_bytes) 0 (levels t)
[@@lint.allow "M2" "test: tls chain codec: the level accounting equals the \
                    bytes of the encoded entries"]
