#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs it with the
# given arguments, from the root of the checkout:
#
#   bash perfbench/run.sh --workload local-rpc --seed 1 --seconds 15 --trace 0
#
# The Go build cache, the binary and every file a run writes stay under
# .bench_build in the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gotmp"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOTMPDIR="$build/gotmp"
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
