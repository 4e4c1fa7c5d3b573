#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ and runs it, from the
# root of a checkout: bash e2ebench/run.sh --workload NAME --seed N ...
# Everything the build writes (binary, Go build cache) stays inside the
# checkout. The benchmark is its own Go module that imports the repository's
# packages through a replace directive, so without the repository around it
# the build — and this script — fails.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off
(cd e2ebench && go build -buildvcs=false -o "$build/e2ebench" .)
exec "$build/e2ebench" "$@"
