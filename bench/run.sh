#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags.
# Everything the build leaves behind — compiler cache, temporaries, the
# binary — stays in .bench_build at the root of the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/mod"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go build -C bench -o "$build/mmdb-bench" .
exec "$build/mmdb-bench" "$@"
