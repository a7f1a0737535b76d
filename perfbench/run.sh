#!/usr/bin/env bash
# Builds the lodify server and the perfbench program from this checkout's
# sources, then runs one benchmark workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload browse --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache, result files and span files all stay
# under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go build -C "$root" -o "$out/lodify" ./cmd/lodify
go build -C "$root/perfbench" -o "$out/perfbench" .
exec "$out/perfbench" -server "$out/lodify" -out "$out" "$@"
