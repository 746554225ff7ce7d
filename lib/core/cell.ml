type ('spec, 'outcome) kind = {
  tag : string;
  label : 'spec -> string;
  fingerprint : 'spec -> string;
  reseed : (string -> string) -> 'spec -> 'spec;
  run : ?trace:Trace.Buf.t -> 'spec -> 'outcome;
  traced : bool;
}

let standard =
  { tag = "outcome";
    label = Experiment.spec_label;
    fingerprint = Experiment.spec_fingerprint;
    reseed =
      (fun f sp -> { sp with Experiment.sp_seed = f sp.Experiment.sp_seed });
    run = Experiment.run_spec;
    traced = true }

let farm =
  { tag = "farm";
    label = Experiment.farm_spec_label;
    fingerprint = Experiment.farm_spec_fingerprint;
    reseed =
      (fun f sp -> { sp with Experiment.fa_seed = f sp.Experiment.fa_seed });
    run = (fun ?trace:_ sp -> Experiment.run_farm_spec sp);
    traced = false }
