#!/usr/bin/env bash
# Builds the benchmark from source and runs it, keeping everything it writes
# (build cache, binary, data directories) under .bench_build in the checkout.
# BENCHMARK.json's command; the arguments are passed through to the program.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" -tmp "$build/tmp" "$@"
