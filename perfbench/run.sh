#!/usr/bin/env bash
# Build the benchmark from source in this checkout, then run it:
#   bash perfbench/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]
# Build output goes to stderr, so the last line of stdout stays the
# benchmark's JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
# no shared build cache: the build reads and writes this checkout only
export DUNE_CACHE=disabled
dune build --root . ./perfbench/clofperf.exe 1>&2
exec ./_build/default/perfbench/clofperf.exe "$@"
