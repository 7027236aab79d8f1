#!/usr/bin/env bash
# Build the benchmark and the dfv daemon from source, then run one
# workload.  Run from the repository root:
#   bash perfbench/run.sh --workload sec_mix --seed 1 --seconds 15 --trace 0
# The last line of standard output is the JSON result.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "perfbench: run from the root of a dfv source tree" >&2
  exit 2
fi

# Keep every build product inside the checkout.
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/main.exe ./bin/dfv.exe 1>&2

exec ./_build/default/perfbench/main.exe \
  --out perfbench/_out --dfv ./_build/default/bin/dfv.exe "$@"
