#!/usr/bin/env bash
# The benchmark's entry point for BENCHMARK.json: build the bench binary from
# source inside the checkout (build cache included, so nothing is read or
# written outside it), then run it from this directory with the given flags.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off
cd "$root/bench"
go build -o "$build/bench" .
exec "$build/bench" "$@"
