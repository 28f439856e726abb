#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the root of a checkout: bash bench/run.sh --workload explore.wf ...
# Everything the build writes (binary, compiler cache) stays in
# .bench_build/ inside the checkout.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local
(cd bench && go build -o "$build/bench" .)
exec "$build/bench" "$@"
