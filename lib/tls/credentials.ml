type t = {
  chain : Chain.t;
  server_key : Pqc.Sigalg.keypair;
  alg : Pqc.Sigalg.t;
  profile : Chain_profile.t;
  certificate : string;
  verdict : bool;
}

let cache : (string, t) Hashtbl.t =
  Hashtbl.create 32
[@@lint.allow "S1" "every access goes through cache_lock below"]

(* the cache is shared across domains when campaigns run in parallel;
   generation is deterministic, so holding the lock while generating
   only serializes the first request per algorithm x profile *)
let cache_lock = Mutex.create ()

let cache_key ~profile alg =
  (* the default profile keeps the pre-chain key (and thus the pre-chain
     DRBG seed) so existing fingerprints and artifacts stay identical *)
  alg.Pqc.Sigalg.name
  ^ (if alg.Pqc.Sigalg.mocked then "#mocked" else "")
  ^
  if Chain_profile.is_default profile then ""
  else "@" ^ profile.Chain_profile.name

let get ?(profile = Chain_profile.default) alg =
  let key = cache_key ~profile alg in
  Mutex.protect cache_lock (fun () ->
      match Hashtbl.find_opt cache key with
      | Some c -> c
      | None ->
        let rng = Crypto.Drbg.create ~seed:("credentials/" ^ key) in
        let chain, server_key = Chain.make profile ~leaf:alg rng in
        let certificate =
          Messages.encode_certificate_chain (Chain.wire_certs chain)
        in
        (* the client's own check, on the bytes every server sends *)
        let verdict =
          Chain.verify_against ~local:chain
            (Messages.decode_certificate_chain certificate)
        in
        let c = { chain; server_key; alg; profile; certificate; verdict } in
        Hashtbl.add cache key c;
        c)

let check t msg =
  if Crypto.Bytesx.equal_ct msg t.certificate then
    (Chain.wire_certs t.chain, fun () -> t.verdict)
  else
    let certs = Messages.decode_certificate_chain msg in
    (certs, fun () -> Chain.verify_against ~local:t.chain certs)
