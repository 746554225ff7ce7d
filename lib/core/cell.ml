type ('spec, 'outcome) kind = {
  tag : string;
  label : 'spec -> string;
  fingerprint : 'spec -> string;
  run : ?trace:Trace.Buf.t -> 'spec -> 'outcome;
  traced : bool;
}

let standard =
  { tag = "outcome";
    label = Experiment.spec_label;
    fingerprint = Experiment.spec_fingerprint;
    run = Experiment.run_spec;
    traced = true }

let farm =
  { tag = "farm";
    label = Experiment.farm_spec_label;
    fingerprint = Experiment.farm_spec_fingerprint;
    run = (fun ?trace:_ sp -> Experiment.run_farm_spec sp);
    traced = false }
