#!/usr/bin/env bash
# Builds the benchmark from the checkout's own sources and runs it with
# the given arguments. Run from the repository root:
#
#   bash hnbench/run.sh --workload attack --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout: the Go build cache, the binary, the stores, the traces.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOMODCACHE="$build/gomodcache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off GOENV=off
(cd "$root/hnbench" && go build -o "$build/hnbench" .) >&2
exec "$build/hnbench" "$@"
