#!/usr/bin/env bash
# The PR driver's entry point (BENCHMARK.json "command"), run from the root
# of a checkout: builds the harness from source into .bench_build and runs
# it with the driver's arguments. Go's caches are kept inside the checkout
# too, so nothing outside it is written.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local
(cd "$root/benchmark" && go build -o "$build/eplogbench" .) >&2
exec "$build/eplogbench" -out "$root/benchmark/out" "$@"
