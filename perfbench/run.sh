#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:  bash perfbench/run.sh --workload vgg-fig9 --seed 1 --seconds 20 --trace 0
# Every file the build and the run write stays under .bench_build/.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config" PPROF_TMPDIR="$build/pprof" GOTOOLCHAIN=local GOFLAGS= GOTELEMETRY=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --out "$build/perfbench-out" "$@"
