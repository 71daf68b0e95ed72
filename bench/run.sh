#!/bin/sh
# Builds and runs the benchmark from the root of a checkout, keeping
# everything the Go toolchain writes (build cache, work directories)
# inside the checkout: BENCHMARK.json's command.
#
#	sh bench/run.sh -workload big_edit -seed 1 -seconds 20 -trace 0
set -e
build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
exec go run -C bench . "$@"
