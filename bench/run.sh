#!/usr/bin/env bash
# Builds the benchmark as the repository ships its binaries (with the
# committed PGO profile of cmd/gentrius) and runs it from the repository
# root with the given arguments. Everything the build and the run write
# stays inside the checkout: the Go build cache, the toolchain's own
# configuration directory (it keeps telemetry counters there) and the binary
# go to .bench_build/, results and scratch files to bench/out/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
go build -C bench -pgo="$root/cmd/gentrius/default.pgo" -o "$build/gentrius-bench" .
BENCH_COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)" \
	exec "$build/gentrius-bench" "$@"
