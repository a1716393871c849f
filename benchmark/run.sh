#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash benchmark/run.sh --workload campaign --seed 1 --seconds 15 --trace 0
#
# Everything the build writes (Go build cache, binary, scratch files) goes
# under .bench_build in the current directory.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOENV=off GOFLAGS=

go -C "$PWD/benchmark" build -o "$out/insure-benchmark" .
exec "$out/insure-benchmark" "$@"
