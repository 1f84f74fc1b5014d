#!/usr/bin/env bash
# Builds the boundsd benchmark from the checkout's sources and runs it
# with the given arguments. Run from the repository root:
#
#   bash boundsbench/run.sh --workload warm-lookup --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (compiler cache, binary) and the span
# files of traced runs stay in .bench_build (or $CARGO_TARGET_DIR).
set -euo pipefail
root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build"
export GOCACHE=$build/gocache GOPATH=$build/gopath GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/boundsbench" && go build -o "$build/boundsbench" .)
exec "$build/boundsbench" "$@"
