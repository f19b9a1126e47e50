#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags.
#
#   bash bench/run.sh                                   # all five workloads
#   bash bench/run.sh --workload serve-cold --seed 3 --seconds 10 --trace 0
#
# Everything the build writes (Go build cache, temp files, the binary)
# stays under .bench_build/ at the repository root; results and traces
# go to bench/out/. The benchmark module replaces the repository module
# with the parent directory, so the build fails (and the script exits
# nonzero) when bench/ is copied somewhere without the repository.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

cd "$here"
# The go command keeps its telemetry counters under the user config
# directory; point that into the build directory too.
XDG_CONFIG_HOME="$build/config" go build -o "$build/bench" .
exec "$build/bench" "$@"
