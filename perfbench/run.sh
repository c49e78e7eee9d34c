#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it. Run from
# the repository root:
#
#   bash perfbench/run.sh --workload kv-tcp --seed 1 --seconds 10 --trace 0
#
# Build cache, temporary files, reports, CPU profiles and Chrome traces all
# stay under .bench_build in the current directory.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOTOOLCHAIN=local GOWORK=off
go -C perfbench build -o "$out/perfbench" . >&2
exec "$out/perfbench" --out "$out" "$@"
