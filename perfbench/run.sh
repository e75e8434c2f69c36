#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in, then
# runs it with the given arguments from the checkout's root. Everything the
# build and the run leave behind goes under .bench_build/ in that root.
#
#   bash perfbench/run.sh --workload exact-sweep --seed 1 --seconds 10 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=readonly
go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" "$@"
