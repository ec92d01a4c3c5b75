#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ inside the checkout
# and runs it. Run from the repository root:
#
#   bash benchmark/run.sh --workload serve_batch --seed 1 --seconds 8 --trace 0
#
# Every cache, configuration and temporary file the Go toolchain reads or
# writes is redirected into .bench_build/ (and the user's go env file is
# ignored), so nothing outside the checkout is touched.
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/benchmark/go.mod" ] || [ ! -d "$root/cmd/prever-server" ]; then
	echo "benchmark/run.sh: run from the root of a full checkout (no go.mod / cmd/prever-server here)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" GOENV=off
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
go build -C "$root/benchmark" -o "$build/prever-benchmark" .
exec "$build/prever-benchmark" "$@"
