#!/bin/sh
# Load-harness smoke test, exercised by CI: start gentriusd with a serving
# trace, drive it with cmd/loadgen under a zero-error SLO, then check that
# (a) no request returned 5xx or failed at the transport, (b) the per-route
# middleware metrics exist, (c) the loadgen per-route counts reconcile
# exactly with the server's own gentriusd_http_requests_total counters
# (conservation), (d) every family the live daemon emits is listed in
# internal/obs/CATALOGUE.md, and (e) the written trace carries the serving
# spans and analyzes cleanly with cmd/obsreport. Needs a Go toolchain, curl, python3
# and POSIX sh.
set -eu

ADDR="127.0.0.1:${GENTRIUSD_PORT:-18081}"
BASE="http://$ADDR"
WORK="$(mktemp -d)"
trap 'kill "$DAEMON_PID" 2>/dev/null || true; rm -rf "$WORK"' EXIT

say() { echo "loadgen-smoke: $*"; }
fail() { echo "loadgen-smoke: FAIL: $*" >&2; exit 1; }

wait_for() {
    i=0
    while [ "$i" -lt 300 ]; do
        if curl -sf "$2" 2>/dev/null | grep -q "$1"; then
            return 0
        fi
        i=$((i + 1))
        sleep 0.1
    done
    fail "timed out waiting for $1 at $2"
}

go build -o "$WORK/gentriusd" ./cmd/gentriusd
go build -o "$WORK/loadgen" ./cmd/loadgen
"$WORK/gentriusd" -addr "$ADDR" -jobs 2 -data-dir "$WORK/data" \
    -trace-out "$WORK/trace.jsonl" 2>"$WORK/daemon.log" &
DAEMON_PID=$!
wait_for '"ok"' "$BASE/healthz"
say "daemon up on $ADDR"

# Tag one submission with a request id, so the trace demonstrably carries
# the edge-to-job correlation the README documents.
curl -sf -H 'X-Request-Id: demo' "$BASE/jobs" \
    -d '{"trees": ["((A,B),(C,D));", "((A,B),(C,E));"]}' >/dev/null \
    || fail "tagged submit rejected"

# Drive the job API. The mix deliberately skips healthz (this script probes
# it) so every exercised route is driven by loadgen alone and the counters
# below must reconcile exactly. -slo-error-rate 0 makes any 5xx or
# transport error a nonzero exit.
"$WORK/loadgen" -addr "$BASE" -rate 80 -duration 3s \
    -mix 'submit=1,stats=3,get=2,list=2,cancel=1,stream=1' \
    -slo-error-rate 0 -out "$WORK/report.json" -md "$WORK/report.md" \
    || fail "loadgen reported errors or SLO violations (see $WORK/report.json)"
say "load run clean: zero 5xx, zero transport errors"

sleep 0.5
curl -sf "$BASE/metrics" >"$WORK/metrics.txt" || fail "metrics scrape"

# Exposition sanity: versioned content type, per-route latency families.
CT=$(curl -sfI "$BASE/metrics" | tr -d '\r' | grep -i '^content-type:')
echo "$CT" | grep -q 'text/plain; version=0.0.4' \
    || fail "metrics content type: $CT"
grep -q 'gentriusd_http_request_seconds' "$WORK/metrics.txt" \
    || fail "no per-route latency family in /metrics"
grep -q 'gentriusd_http_request_seconds_bucket{route="submit",le="+Inf"}' "$WORK/metrics.txt" \
    || fail "no latency buckets for the submit route"
grep -q 'gentriusd_http_requests_total{route="submit",code="202"}' "$WORK/metrics.txt" \
    || fail "no submit request counter"
say "per-route metric families present"

# Conservation: loadgen's per-route counts must equal the server's
# counters on every route the generator drove.
python3 - "$WORK/report.json" "$WORK/metrics.txt" <<'EOF'
import json, re, sys
report = json.load(open(sys.argv[1]))
server = {}
pat = re.compile(r'^gentriusd_http_requests_total\{route="([^"]+)",code="\d+"\} (\d+)')
for line in open(sys.argv[2]):
    m = pat.match(line)
    if m:
        server[m.group(1)] = server.get(m.group(1), 0) + int(m.group(2))
bad = []
for route, n in sorted(report["route_counts"].items()):
    got = server.get(route, 0)
    if route == "submit":
        got -= 1  # the tagged demo submission above, outside loadgen
    if got != n:
        bad.append(f"{route}: loadgen {n}, server {got}")
if bad:
    sys.exit("conservation violated: " + "; ".join(bad))
print("conservation ok:", ", ".join(f"{r}={n}" for r, n in sorted(report["route_counts"].items())))
EOF
say "loadgen and middleware counters reconcile"

# Exposition hygiene: every family the daemon emits must actually surface —
# a TYPE-declared family with no samples (or a sample whose family was never
# declared) means a lazily-registered instrument silently vanished from the
# scrape. Families must also be contiguous and in the registry's sorted
# order, which is what the diff-based smoke checks and dashboards key on.
# And the contract: a family this daemon emits under load is a row of the
# catalogue (the other direction, listed but never registered, is
# TestCatalogue's).
python3 - "$WORK/metrics.txt" internal/obs/CATALOGUE.md <<'EOF'
import re, sys
declared, samples = [], []
for line in open(sys.argv[1]):
    line = line.rstrip("\n")
    if line.startswith("# TYPE "):
        declared.append(line.split()[2])
    elif line and not line.startswith("#"):
        samples.append(line)
declset = set(declared)

def fam_of(name):
    for suf in ("_bucket", "_sum", "_count"):
        if name.endswith(suf) and name[: -len(suf)] in declset:
            return name[: -len(suf)]
    return name

seen, sampled = [], set()
for line in samples:
    name = re.match(r"[A-Za-z_:][A-Za-z0-9_:]*", line).group(0)
    fam = fam_of(name)
    if fam not in declset:
        sys.exit(f"family {fam} emitted without a TYPE declaration: {line}")
    sampled.add(fam)
    if not seen or seen[-1] != fam:
        if fam in seen:
            sys.exit(f"family {fam} is not contiguous in the exposition")
        seen.append(fam)

absent = [f for f in declared if f not in sampled]
if absent:
    sys.exit("declared families absent from the exposition: " + ", ".join(absent))

if seen != sorted(seen):
    sys.exit("exposition families are not sorted")

listed = set(re.findall(r"^\| `([a-z0-9_]+)` \| (?:counter|gauge|histogram) \|", open(sys.argv[2]).read(), re.M))
stray = [f for f in declared if f not in listed]
if stray:
    sys.exit("families emitted and not listed in " + sys.argv[2] + ": " + ", ".join(stray))
print(f"exposition hygiene ok: {len(declared)} families, all sampled, sorted, catalogued")
EOF
say "metrics exposition sorted, complete and catalogued"

kill -TERM "$DAEMON_PID"
STATUS=0
wait "$DAEMON_PID" || STATUS=$?
[ "$STATUS" = "0" ] || { cat "$WORK/daemon.log" >&2; fail "daemon exited $STATUS"; }

# The trace must hold the serving spans (including the tagged request) and
# analyze cleanly.
grep -q '"ev":"http-begin"' "$WORK/trace.jsonl" || fail "trace has no http spans"
grep -q '"req":"demo"' "$WORK/trace.jsonl" || fail "trace lost the demo request id"
go run ./cmd/obsreport -trace "$WORK/trace.jsonl" \
    -out "$WORK/obsreport.md" -perfetto "$WORK/perfetto.json"
grep -q 'Request spans' "$WORK/obsreport.md" || fail "obsreport has no request-span section"
python3 -c "import json; json.load(open('$WORK/perfetto.json'))"
say "trace analyzed: request spans present, Perfetto export is valid JSON"
say "PASS"
