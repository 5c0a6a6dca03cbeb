#!/usr/bin/env bash
# Build casbench from source and run it with the given arguments. This is
# the command BENCHMARK.json names; it is started from the repository
# root. Everything the build writes stays inside the checkout, under
# .bench_build/ (ignored by git): the binary, and Go's build and module
# caches.
set -euo pipefail

bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench")"
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOFLAGS=-mod=readonly GOWORK=off GOTOOLCHAIN=local GOPROXY=off

# bench/ is a module of its own that replaces casched with the parent
# directory, so the build fails, as it must, where the program is absent.
(cd "$bench" && go build -o "$build/casbench" ./cmd/casbench) >&2

cd "$root"
exec "$build/casbench" "$@"
