#!/usr/bin/env bash
# Builds the sketchd benchmark and runs it. Run from the root of a
# checkout, for example:
#
#   bash bench/run.sh --workload tcp-ingest --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under the checkout: the Go
# build cache and binaries go to .bench_build/, run data and span files to
# .bench_out/. The benchmark itself builds ./cmd/sketchd before timing.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local

go -C bench build -o "$out/bench" .
exec "$out/bench" "$@"
