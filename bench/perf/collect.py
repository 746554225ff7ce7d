"""Runs the benchmark over workloads and seeds and writes one evidence file.

    python3 bench/perf/collect.py bench/perf/baseline/run-a.json
    python3 bench/perf/collect.py bench/perf/baseline/trace.json --trace --seeds pqtls

Each entry holds a run's result line; the file also records the machine's
processor count and the OCaml version. Run it from the repository root.
"""

import argparse
import json
import os
import subprocess


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("out")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--seeds", default="pqtls,heldout")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    seconds = bench["run_seconds"]
    ocaml = subprocess.run(["ocaml", "-vnum"], capture_output=True, text=True)
    runs = []
    for workload in [w["name"] for w in bench["workloads"]]:
        for seed in args.seeds.split(","):
            p = subprocess.run(
                ["bash", "bench/perf/run.sh", "--workload", workload,
                 "--seed", seed, "--seconds", str(seconds),
                 "--trace", "1" if args.trace else "0"],
                capture_output=True, text=True)
            result = json.loads(p.stdout.strip().splitlines()[-1])
            print(workload, seed, "exit", p.returncode,
                  "correct", result["correct"], flush=True)
            runs.append({"workload": workload, "seed": seed,
                         "exit": p.returncode, "result": result})
    with open(args.out, "w") as f:
        json.dump({"nproc": os.cpu_count(), "ocaml": ocaml.stdout.strip(),
                   "run_seconds": seconds, "trace": args.trace, "runs": runs},
                  f, indent=1)
        f.write("\n")


main()
