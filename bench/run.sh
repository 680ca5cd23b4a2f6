#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; arguments pass through (-workload, -seed, -trace, ...).
# The Go build cache, temporary files and every other file the toolchain
# writes stay in .bench_build/ under the root; results go to bench/out/.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOENV=off CGO_ENABLED=0
export XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache"

# A checkout holding only the benchmark has no module to build it
# against: go build fails and so does this script.
(cd "$root/bench" && go build -o "$build/bench" .)
exec "$build/bench" -out "$root/bench/out" "$@"
