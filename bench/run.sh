#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository root:
#
#   bash bench/run.sh --workload explore --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write stays under .bench_build and
# .bench_out in the current directory.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath" \
  GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" GOENV=off GOTOOLCHAIN=local \
  GOFLAGS= GOPROXY=off GOWORK=off
(cd "$root/bench" && go build -o "$build/bench" .)
exec "$build/bench" "$@"
