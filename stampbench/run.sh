#!/usr/bin/env bash
# Build the benchmark in the release profile and run it with the given
# arguments, e.g.
#
#   bash stampbench/run.sh --workload fig2 --seed 1 --seconds 20 --trace 0
#
# Build output goes to .bench_build and to stderr, so the last line of
# standard output is the benchmark's JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
command -v dune >/dev/null 2>&1 || eval "$(opam env 2>/dev/null)"
DUNE_CACHE=disabled dune build --root . --profile release \
  --build-dir .bench_build ./stampbench/stampbench.exe 1>&2
exec ./.bench_build/default/stampbench/stampbench.exe "$@"
