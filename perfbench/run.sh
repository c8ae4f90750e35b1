#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from the
# root of the repository:
#
#   bash perfbench/run.sh --workload sift-beam --seed 1 --seconds 30 --trace 0
#
# Build outputs and the Go build cache stay under .bench_build/ in the
# checkout; a missing or broken source tree fails the build, and with it
# the run.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOTELEMETRY=off GOFLAGS=-mod=readonly
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
