#!/usr/bin/env bash
# Build bench_e2e/e2e.exe from source in this checkout, then run it
# with the given arguments (bench_e2e/README.md lists them). Build
# output goes to stderr, so the benchmark's result line stays the last
# line of stdout.
set -euo pipefail
cd "$(dirname "$0")/.."
# Keep dune's shared cache out of the user's home: build in the checkout.
export DUNE_CACHE=disabled
dune build --root . --build-dir _build --display quiet ./bench_e2e/e2e.exe 1>&2
exec ./_build/default/bench_e2e/e2e.exe "$@"
