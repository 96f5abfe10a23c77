#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it, from the
# root of the checkout:
#
#   bash perfbench/run.sh --workload solve-table --seed 1 --seconds 20 --trace 0
#
# Everything the Go toolchain writes (build cache, module cache, the
# binary) stays under .bench_build/ in the checkout. The build needs the
# repository's module next to perfbench/; without it, it fails and the run
# exits non-zero before printing any result.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOENV=off GOFLAGS= \
	GOTOOLCHAIN=local XDG_CONFIG_HOME="$build/config" HOME="$build/home"
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
