#!/usr/bin/env bash
# Builds the benchmark from source in the current checkout and runs it.
# Run from the repository root:
#
#   bash benchmark/run.sh --workload paper-sweep --seed 1 --seconds 30 --trace 0
#
# The binary and the Go build cache live under $CARGO_TARGET_DIR (default
# .bench_build) inside the checkout, so the build reads and writes nothing
# outside it and needs no network. Outside a full checkout (no go.mod one
# level up from this directory) the build fails and so does this script.
set -euo pipefail
root=$PWD
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE=$build/gocache GOMODCACHE=$build/modcache GOTMPDIR=$build/tmp XDG_CONFIG_HOME=$build/config \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go -C "$root/benchmark" build -o "$build/atgpu-bench" .
exec "$build/atgpu-bench" "$@"
