#!/usr/bin/env bash
# Regenerates cmd/gentrius/default.pgo — the one committed profile, which
# `go build ./cmd/gentrius` and bench/run.sh pick up — from the fixed-seed
# benchreport workload (deterministic dataset selection, so the profiled
# code paths are reproducible across hosts; sample counts of course vary).
# A profile measured 3-5 % at most on the count-deep stand (EXPERIMENTS.md,
# PR 25): regenerate it when a gate says it pays, not with every perf PR.
#
# Usage: scripts/pgo_profile.sh [benchtime]
#   benchtime: per-benchmark budget passed to benchreport (default 1s).
set -euo pipefail
cd "$(dirname "$0")/.."

BENCHTIME="${1:-1s}"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

# The profiling run itself is built without a profile.
go build -pgo=off -o "$TMP/benchreport" ./cmd/benchreport
"$TMP/benchreport" -benchtime "$BENCHTIME" -cpuprofile "$TMP/cpu.pprof" \
    -note pgo-profile -out /dev/null

cp "$TMP/cpu.pprof" cmd/gentrius/default.pgo
echo "pgo_profile: wrote $(wc -c <"$TMP/cpu.pprof") bytes to cmd/gentrius/default.pgo"
