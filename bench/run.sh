#!/usr/bin/env bash
# Builds spmt-server and the benchmark from the checkout in the current
# directory, then runs the benchmark with the given arguments:
#
#   bash bench/run.sh --workload sweep-cold --seed 1 --seconds 10 --trace 0
#
# Everything it writes (Go build cache, binaries, temporary stores, result
# records) stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
go build -o "$build/spmt-server" ./cmd/spmt-server
(cd bench && go build -o "$build/bench" .)
exec "$build/bench" --server "$build/spmt-server" --root "$build" "$@"
