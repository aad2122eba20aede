#!/usr/bin/env bash
# Build file and entry point of the benchmark, as BENCHMARK.json runs it
# from the root of a checkout:
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# It builds ./bench from source into .bench_build/ (build cache
# included, so nothing is written outside the checkout) and runs it.
# Outside a checkout of the repository there is no module to build and
# it exits non-zero without printing a result.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go build -o "$build/dufs-bench" ./bench
exec "$build/dufs-bench" "$@"
