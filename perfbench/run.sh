#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the root of a checkout. Everything it builds or writes
# stays under .bench_build/ in that checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of a checkout that holds the program's sources" >&2
	exit 2
fi
root=$PWD
build=$root/.bench_build
mkdir -p "$build/tmp"
# The Go tool's caches, temporary files and config (telemetry counters
# included) all go under .bench_build.
export GOCACHE=$build/go-cache GOPATH=$build/gopath GOTMPDIR=$build/tmp XDG_CONFIG_HOME=$build/config
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go build -C perfbench -o "$build/perfbench" .
exec "$build/perfbench" "$@"
