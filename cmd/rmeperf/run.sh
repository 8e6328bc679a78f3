#!/usr/bin/env bash
# Builds the rmeperf benchmark from source and runs it with the given
# flags. Run it from the repository root, for example:
#
#   bash cmd/rmeperf/run.sh --workload mutex-solo --seed 1 --seconds 20 --trace 0
#
# Everything the Go toolchain writes (build cache, scratch files, module
# state, configuration, telemetry) and the binary itself go to
# .bench_build/ in the current directory, so nothing outside the checkout
# is touched.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOENV=off GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOTELEMETRY=off

go -C cmd/rmeperf build -o "$build/rmeperf" .
exec "$build/rmeperf" "$@"
