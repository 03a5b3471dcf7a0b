#!/bin/sh
# Builds hsgcbench from source into .bench_build, then runs it with the
# given arguments. Run from the repository root, for example:
#   sh bench/e2e/run.sh --workload fig5-base --seed 42 --seconds 15 --trace 0
#   sh bench/e2e/run.sh            # all four workloads
set -eu
cd "$(dirname "$0")/../.."
DUNE_CACHE=disabled dune build --root . --build-dir .bench_build \
  --profile release --display quiet ./bench/e2e/hsgcbench.exe >&2
exec .bench_build/default/bench/e2e/hsgcbench.exe "$@"
