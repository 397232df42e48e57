#!/usr/bin/env bash
# Builds the benchmark and allocd from this checkout, then runs one
# workload. Every build product and scratch file stays under .bench_build/
# at the checkout root. Run from the checkout root:
#
#   bash perfbench/run.sh --workload paper-tables --seed 1 --seconds 30 --trace 0
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOENV=off GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root" && go build -o "$out/allocd" ./cmd/allocd)
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -allocd "$out/allocd" -workdir "$out/tmp" "$@"
