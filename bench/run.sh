#!/usr/bin/env bash
# BENCHMARK.json's command: build the benchmark from the checkout this
# script lies in and run it with the arguments given. The go build cache,
# the binaries, the daemon's state directories and every other file the
# run leaves behind stay under .bench_build/ (and bench/out/ for span
# files) inside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off
go build -o "$build/bin/bench" ./bench
exec "$build/bin/bench" -build "$build" "$@"
