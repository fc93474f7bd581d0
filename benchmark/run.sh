#!/bin/bash
# Builds the benchmark from source inside the checkout and runs it with the
# given arguments. Everything the build writes (the binary, go's build and
# module caches, its telemetry counters) goes to .bench_build at the root
# of the checkout.
set -eu

here=$(cd "$(dirname "$0")" && pwd)
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTOOLCHAIN=local

started=$(date +%s%N)
XDG_CONFIG_HOME="$build/config" go build -C "$here" -o "$build/hamster-benchmark" .
ms=$(( ($(date +%s%N) - started) / 1000000 ))
# Compile time is reported as host.build_s, not as part of set-up.
export HAMSTER_BENCH_BUILD_S="$((ms / 1000)).$(printf %03d $((ms % 1000)))"

exec "$build/hamster-benchmark" "$@"
