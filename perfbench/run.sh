#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload cold-mix --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Everything the build writes (compiler
# cache, binary, span dumps) stays under .bench_build/ in that directory.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache" \
	GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOWORK=off
go build -C perfbench -o "$build/perfbench" .
exec "$build/perfbench" "$@"
