#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it. Invoke from
# the repository root:
#
#   bash e2ebench/run.sh --workload http-analytic-open --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write (Go build cache, binary, plan
# stores, span files) stays under $CARGO_TARGET_DIR (default
# .bench_build) in the current directory. The benchmark module imports
# the repository's packages through a relative replace directive, so
# run outside a checkout the build fails and this script exits nonzero.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/gopath" "$out/gotmp"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/gotmp"
export GOWORK=off GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-mod=mod

go -C "$root/e2ebench" build -o "$out/e2ebench" .
exec "$out/e2ebench" -work "$out/e2ebench-work" "$@"
