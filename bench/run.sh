#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root:
#
#   bash bench/run.sh --workload replay-sporadic --seed 42 --seconds 15 --trace 0
#
# The build cache, module cache and binary live in .bench_build/ under the
# current directory, so a run reads and writes nothing outside the checkout
# (apart from the Go toolchain itself). Without the repository's go.mod next
# to bench/, the build fails and the script exits non-zero without output.
set -euo pipefail

build="$PWD/.bench_build"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
mkdir -p "$build"
# With telemetry on, a go command may leave a detached upload process behind.
go telemetry off 2>/dev/null || true
go build -C bench -o "$build/bench" .
exec "$build/bench" "$@"
