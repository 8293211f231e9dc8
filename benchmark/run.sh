#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and executes it.
# Everything the Go toolchain writes (build cache, temporary files, the
# binary) stays under .bench_build/ in that checkout. Arguments are
# passed through, e.g.
#   bash benchmark/run.sh --workload topk_indexed --seed 1 --seconds 10 --trace 0
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOWORK=off
go build -o "$out/benchmark" ./benchmark
exec "$out/benchmark" "$@"
