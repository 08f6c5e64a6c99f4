#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout, then runs it with the given arguments. Everything the build
# writes (Go build cache, temporary files, the binary) stays in there.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -C "$root/benchmark" -o "$build/fpmbench" .
cd "$root"
exec "$build/fpmbench" "$@"
