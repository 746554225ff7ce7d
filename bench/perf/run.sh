#!/usr/bin/env bash
# Builds the benchmark driver from source and runs it with the given
# arguments, from the repository root:
#
#   bash bench/perf/run.sh --workload kem-ideal --seed pqtls --seconds 15 --trace 0
#
# Build outputs and scratch files stay under .bench_build/ in the
# checkout; dune's shared cache is not used.
set -euo pipefail
cd "$(dirname "$0")/../.."
DUNE_CACHE=disabled dune build --root . --build-dir .bench_build \
  --display quiet ./bench/perf/perf.exe >&2
exec .bench_build/default/bench/perf/perf.exe "$@"
