#!/usr/bin/env bash
# Builds the benchmark driver from source and runs it with the given flags.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload t3-batch --seed 1 --seconds 25 --trace 0
#
# Every file the Go tool writes (build cache, module cache, telemetry
# counters) and the driver binary stay under .bench_build/ in the current
# directory.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build"
export XDG_CONFIG_HOME="$build/config" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
go build -C perfbench -o "$build/perfbench" . >&2
exec "$build/perfbench" "$@"
