#!/usr/bin/env bash
# Build the benchmark from this checkout's sources, then run it.
#
#   bash perfbench/run.sh --workload cold-explore|cold-tune|warm-serve \
#        --seed N --seconds S --trace 0|1
#
# Run from the repository root.  The build goes to _build/ (the shared
# dune cache is disabled so nothing is written outside the checkout) and
# the benchmark's scratch files to .perfbench/.
set -eu
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f perfbench/dune ]; then
  echo "perfbench: run from the root of a repository checkout (dune-project, lib/ or perfbench/dune missing)" >&2
  exit 2
fi
DUNE_CACHE=disabled dune build --root . ./perfbench/main.exe ./perfbench/reference.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
