#!/usr/bin/env bash
# The paper's figures as a gate: `cmd/experiments -exp all -quick` with the
# wall time in its section headers stripped is deterministic (virtual time,
# fixed seeds), so any difference from testdata/experiments_quick.golden.txt
# is a change to what the reproduction reports. About 80 s on two cores.
#
# Usage: scripts/experiments_golden.sh            # diff against the golden
#        scripts/experiments_golden.sh -update    # rewrite it, on purpose
set -euo pipefail
cd "$(dirname "$0")/.."

GOLDEN=testdata/experiments_quick.golden.txt
OUT="$(mktemp)"
trap 'rm -f "$OUT"' EXIT
go run ./cmd/experiments -exp all -quick | sed -E 's/^(==== .*) \([0-9hms.µ]+\) ====$/\1 ====/' >"$OUT"

if [ "${1:-}" = "-update" ]; then
    cp "$OUT" "$GOLDEN"
    echo "experiments_golden: wrote $(wc -l <"$GOLDEN") lines to $GOLDEN"
else
    diff -u "$GOLDEN" "$OUT"
    echo "experiments_golden: PASS ($(wc -l <"$GOLDEN") lines identical)"
fi
