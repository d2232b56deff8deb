#!/usr/bin/env bash
# Build the benchmark from source and run it; all arguments go to main.exe.
#   bash perfbench/run.sh --workload ingest --seed 1 --seconds 20 --trace 0
# Run from the root of a checkout. The last line of standard output is the
# JSON result; build output goes to standard error.
set -euo pipefail
if [[ ! -f dune-project || ! -d lib/server || ! -f perfbench/main.ml ]]; then
  echo "perfbench: run from the root of a full ra_safety checkout" >&2
  exit 2
fi
dune build --root . --cache=disabled --display quiet ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
