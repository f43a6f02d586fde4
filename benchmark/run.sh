#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# given arguments. Everything the build and the run write (Go build cache,
# binary, scratch files) goes under .bench_build/ at the checkout root.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off
cd "$root"
go build -C "$here" -o "$build/lakeguard-benchmark" .
exec "$build/lakeguard-benchmark" "$@"
