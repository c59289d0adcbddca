#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# from the root of the checkout. Everything the build leaves behind (the
# binary and Go's build cache) stays inside the checkout, under .bench_build.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOTOOLCHAIN=local
(cd benchmark && go build -o "$build/fabricbench" .)
exec "$build/fabricbench" "$@"
