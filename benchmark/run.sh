#!/usr/bin/env bash
# Builds the benchmark from source into the checkout's .bench_build/ (the Go
# build cache too, so nothing outside the checkout is written) and runs it
# from the checkout's root with the arguments given.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOPROXY=off
go -C "$root/benchmark" build -o "$build/svmbench" .
cd "$root"
exec "$build/svmbench" "$@"
