#!/usr/bin/env bash
# Builds the benchmark driver from this checkout and runs it with the given
# arguments, from the repository root:
#
#   bash bench/run.sh --workload jobs_warm --seed 1 --seconds 12 --trace 0
#
# The Go build cache, temporary build files and binaries live under
# .bench_build/ so that a run reads and writes only inside the checkout.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
export GOCACHE="$root/.bench_build/gocache"
export GOTMPDIR="$root/.bench_build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
mkdir -p "$GOTMPDIR" "$root/.bench_build/bin"
go build -C bench -o "$root/.bench_build/bin/bench" .
exec "$root/.bench_build/bin/bench" -root "$root" "$@"
