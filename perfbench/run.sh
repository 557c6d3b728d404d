#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root, for example:
#
#   bash perfbench/run.sh --workload analyze-cold --seed 1 --seconds 20 --trace 0
#
# Every build and run artifact (Go build cache, toolchain telemetry, binary,
# temporary artifact stores) stays under .bench_build/ in the current
# directory.
set -euo pipefail
build="$(pwd)/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOMODCACHE="$build/gopath/pkg/mod" GOFLAGS= GOWORK=off GOTOOLCHAIN=local CGO_ENABLED=0
go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" --workdir "$build/work" "$@"
