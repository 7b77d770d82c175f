#!/usr/bin/env bash
# Entry point of the repository benchmark, run from the repository root:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Builds perfbench/main.exe and the libraries it drives from source
# (the first run in a fresh checkout pays the build), then runs it with
# the given arguments. Outside a checkout of the repository the build
# fails and this exits non-zero without printing a result. The shared
# dune cache is off so that the build writes only inside the checkout.
set -euo pipefail
export DUNE_CACHE=disabled
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env)"
fi
exec dune exec --root . --display quiet --no-print-directory perfbench/main.exe -- "$@"
