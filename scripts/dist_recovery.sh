#!/bin/sh
# Distributed-recovery smoke test for the gentriusd fleet, exercised by CI:
# start two worker daemons (every gentriusd accepts shard leases on
# /v1/shards) plus a coordinator with -fleet, submit a finite job, SIGKILL
# one worker while it holds a shard mid-run, and require the fleet to
# detect the loss by lease expiry, re-dispatch the shard from its last
# durable checkpoint, and finish with counters EXACTLY equal to the
# uninterrupted single-node run — the same 8989/5417/0 discipline as
# scripts/crash_recovery.sh, but across processes. Then the fleet at zero:
# the job runs again and the surviving worker is SIGKILLed too, so the
# coordinator's own worker ("local") must finish it, just as exactly.
#
# Every daemon runs with a deterministic per-tree stall (GENTRIUS_FAULTS) so
# shards are slow enough to kill mid-flight, and to watch on the
# coordinator's own worker; the coordinator enumerates nothing else, so the
# merge accounting is what's under test, not luck.
# Needs only a Go toolchain, curl and POSIX sh.
set -eu

P0="${GENTRIUSD_FLEET_PORT:-18085}"  # coordinator
P1=$((P0 + 1))                       # worker a (the victim)
P2=$((P0 + 2))                       # worker b
COORD="http://127.0.0.1:$P0"
WORK="$(mktemp -d)"
PIDS=""
trap 'for p in $PIDS; do kill -9 "$p" 2>/dev/null || true; done; rm -rf "$WORK"' EXIT

say() { echo "dist-recovery: $*"; }
fail() { echo "dist-recovery: FAIL: $*" >&2; exit 1; }

# Poll until "$1" appears in the output of `curl $2`, up to ~60s.
wait_for() {
    i=0
    while [ "$i" -lt 600 ]; do
        if curl -sf "$2" 2>/dev/null | grep -q "$1"; then
            return 0
        fi
        i=$((i + 1))
        sleep 0.1
    done
    fail "timed out waiting for $1 at $2"
}

metric() { curl -sf "$1/metrics" | grep "^$2 " | awk '{print $2}'; }

go build -o "$WORK/gentriusd" ./cmd/gentriusd

# Two interleaved caterpillars: 8989 stand trees, 5417 intermediate states,
# 0 dead ends in the uninterrupted run. At 1ms per streamed tree the
# workers need ~9s of enumeration — plenty to kill one mid-shard.
T1='(((((((((A,B),x0),x1),x2),x3),x4),x5),C),D);'
T2=$(echo "$T1" | tr x y)
STAND=8989
STATES=5417

# Reference run on a clean single node: the fleet totals must be byte-equal
# to this (the counters are schedule- and distribution-independent).
"$WORK/gentriusd" -addr "127.0.0.1:$P1" -data-dir "$WORK/ref" 2>"$WORK/ref.log" &
REF=$!; PIDS="$PIDS $REF"
wait_for '"ok"' "http://127.0.0.1:$P1/healthz"
curl -sf "http://127.0.0.1:$P1/jobs" -d "{\"trees\": [\"$T1\", \"$T2\"]}" >/dev/null || fail "reference submit"
wait_for '"state": *"done"' "http://127.0.0.1:$P1/jobs/j000001"
REFSTAT=$(curl -sf "http://127.0.0.1:$P1/jobs/j000001")
GOT=$(echo "$REFSTAT" | grep -o '"stand_trees": *[0-9]*' | grep -o '[0-9]*$')
GOTS=$(echo "$REFSTAT" | grep -o '"intermediate_states": *[0-9]*' | grep -o '[0-9]*$')
[ "$GOT" = "$STAND" ] || fail "reference run found $GOT stand trees, want $STAND"
[ "$GOTS" = "$STATES" ] || fail "reference run counted $GOTS states, want $STATES"
kill -TERM "$REF"; wait "$REF" 2>/dev/null || true
say "single-node reference: $STAND trees, $STATES states"

# The fleet: two throttled workers, one clean coordinator. Short leases and
# a quick heartbeat cadence keep the drill fast. A heartbeat carries a
# checkpoint, and a checkpoint waits for the blocks of trees on their way to
# the sink: up to five of 32 KiB, some 2 700 of these 60-byte trees, 2.7 s
# at the workers' 1 ms a tree. The lease outlasts that with room to spare.
GENTRIUS_FAULTS="seed=1;treestream.every=1;treestream.delay=1ms" \
    "$WORK/gentriusd" -addr "127.0.0.1:$P1" -data-dir "$WORK/w1" 2>"$WORK/w1.log" &
W1=$!; PIDS="$PIDS $W1"
GENTRIUS_FAULTS="seed=1;treestream.every=1;treestream.delay=1ms" \
    "$WORK/gentriusd" -addr "127.0.0.1:$P2" -data-dir "$WORK/w2" 2>"$WORK/w2.log" &
W2=$!; PIDS="$PIDS $W2"
GENTRIUS_FAULTS="seed=1;treestream.every=1;treestream.delay=1ms" \
    "$WORK/gentriusd" -addr "127.0.0.1:$P0" -data-dir "$WORK/c0" \
    -fleet "http://127.0.0.1:$P1,http://127.0.0.1:$P2" \
    -lease-ttl 6s -heartbeat-every 400ms -trace-out "$WORK/c0.trace.jsonl" 2>"$WORK/c0.log" &
C0=$!; PIDS="$PIDS $C0"
wait_for '"ok"' "http://127.0.0.1:$P1/healthz"
wait_for '"ok"' "http://127.0.0.1:$P2/healthz"
wait_for '"ok"' "$COORD/healthz"

curl -sf "$COORD/jobs" -d "{\"trees\": [\"$T1\", \"$T2\"]}" >/dev/null || fail "fleet submit"
say "fleet job submitted (throttled coordinator + 2 throttled workers)"

# SIGKILL worker a once it holds at least one shard and has had time to get
# genuinely mid-run (the stall makes every shard take seconds).
wait_for 'gentriusd_fleet_worker_shards_accepted_total [1-9]' "http://127.0.0.1:$P1/metrics"
sleep 1
kill -9 "$W1"
wait "$W1" 2>/dev/null || true
say "worker a SIGKILLed mid-shard"

# The epoch fence must be observable while the job runs: /metrics carries
# the fleet's aggregates only, one shard's epoch is a row of the status
# endpoint. The job cannot end before the victim's shards have run again,
# for seconds, at their bumped epoch.
wait_for '"epoch": *[2-9]' "$COORD/v1/fleet/status"
say "epoch fence visible in /v1/fleet/status: a shard is at epoch >= 2"

wait_for '"state": *"done"' "$COORD/jobs/j000001"
STATUS=$(curl -sf "$COORD/jobs/j000001")
GOT=$(echo "$STATUS" | grep -o '"stand_trees": *[0-9]*' | grep -o '[0-9]*$')
GOTS=$(echo "$STATUS" | grep -o '"intermediate_states": *[0-9]*' | grep -o '[0-9]*$')
GOTD=$(echo "$STATUS" | grep -o '"dead_ends": *[0-9]*' | grep -o '[0-9]*$' || true)
[ "$GOT" = "$STAND" ] || fail "fleet run found $GOT stand trees, want exactly $STAND"
[ "$GOTS" = "$STATES" ] || fail "fleet run counted $GOTS states, want exactly $STATES"
[ -z "$GOTD" ] || [ "$GOTD" = "0" ] || fail "fleet run counted $GOTD dead ends, want 0"

# The recovery must be observable: at least one lease expired, and each
# expiry re-dispatches its shard from its checkpoint.
EXP=$(metric "$COORD" gentriusd_fleet_lease_expiries_total)
[ "${EXP:-0}" -ge 1 ] || fail "no lease expiry despite the SIGKILL (expiries=$EXP)"
LINES=$(curl -sf "$COORD/jobs/j000001/trees" | grep -c '"tree"')
[ "$LINES" -ge "$STAND" ] || fail "spool replays $LINES trees, want >= $STAND"
# Each tree once: the killed worker's shards shipped trees on their
# heartbeats, their next epochs resumed behind the last cut, and a shard's
# log reaches the spool when the shard is merged. The spool's line count, what
# a replay of it yields and the sum of the coordinator's "shard merged" log
# lines all equal the stand.
[ "$LINES" = "$STAND" ] || fail "spool replays $LINES trees, want exactly $STAND (a tree crossed the merge twice)"
SPOOLED=$(echo "$STATUS" | grep -o '"trees_spooled": *[0-9]*' | grep -o '[0-9]*$')
[ "$SPOOLED" = "$STAND" ] || fail "job status counts $SPOOLED spooled trees, want exactly $STAND"
MERGED=$(grep 'msg="shard merged"' "$WORK/c0.log" | grep -o 'trees=[0-9]*' | cut -d= -f2 | awk '{s += $1} END {print s + 0}')
[ "$MERGED" -le "$STAND" ] && [ "$MERGED" -ge $((STAND - 1)) ] \
    || fail "coordinator log: shards merged $MERGED trees in all, want $STAND (less the prefix's, if any)"
say "fleet finished exactly: $GOT trees, $GOTS states, $LINES spool lines (expiries=$EXP)"

# The fleet at zero: submit the job again and SIGKILL worker b, the last
# peer, once it holds a shard of it. With no peer alive the coordinator
# leases the shards to its own worker, under the same leases and merge, and
# the job finishes on it exactly as before.
ACC=$(metric "http://127.0.0.1:$P2" gentriusd_fleet_worker_shards_accepted_total)
curl -sf "$COORD/jobs" -d "{\"trees\": [\"$T1\", \"$T2\"]}" >/dev/null || fail "second fleet submit"
i=0
while N=$(metric "http://127.0.0.1:$P2" gentriusd_fleet_worker_shards_accepted_total) && [ "${N:-0}" -le "${ACC:-0}" ]; do
    i=$((i + 1))
    [ "$i" -lt 600 ] || fail "worker b accepted no shard of the second job"
    sleep 0.1
done
sleep 1
kill -9 "$W2"
wait "$W2" 2>/dev/null || true
say "worker b SIGKILLed mid-shard: no peer is alive"

wait_for '"peer": *"local"' "$COORD/v1/fleet/status"
say "a shard of the second job is leased to peer local in /v1/fleet/status"
wait_for '"state": *"done"' "$COORD/jobs/j000002"
STATUS=$(curl -sf "$COORD/jobs/j000002")
GOT=$(echo "$STATUS" | grep -o '"stand_trees": *[0-9]*' | grep -o '[0-9]*$')
GOTS=$(echo "$STATUS" | grep -o '"intermediate_states": *[0-9]*' | grep -o '[0-9]*$')
GOTD=$(echo "$STATUS" | grep -o '"dead_ends": *[0-9]*' | grep -o '[0-9]*$' || true)
[ "$GOT" = "$STAND" ] || fail "fleet at zero found $GOT stand trees, want exactly $STAND"
[ "$GOTS" = "$STATES" ] || fail "fleet at zero counted $GOTS states, want exactly $STATES"
[ -z "$GOTD" ] || [ "$GOTD" = "0" ] || fail "fleet at zero counted $GOTD dead ends, want 0"
LINES=$(curl -sf "$COORD/jobs/j000002/trees" | grep -c '"tree"')
[ "$LINES" = "$STAND" ] || fail "fleet at zero: spool replays $LINES trees, want exactly $STAND"
say "fleet at zero finished exactly on the coordinator's own worker: $GOT trees, $GOTS states, $LINES spool lines"

# A graceful exit for the coordinator.
kill -TERM "$C0"
STATUS=0; wait "$C0" || STATUS=$?
[ "$STATUS" = "0" ] || fail "coordinator exited $STATUS after SIGTERM"

# Once the job is over its lineage is the coordinator's trace (flushed by the
# graceful exit): the re-dispatch is a shard-dispatch event at the next epoch.
grep '"ev":"shard-dispatch"' "$WORK/c0.trace.jsonl" | grep -q '"epoch":1[,}]' \
    || fail "coordinator trace has no shard-dispatch at epoch 1"
grep '"ev":"shard-dispatch"' "$WORK/c0.trace.jsonl" | grep -q '"epoch":[2-9]' \
    || fail "coordinator trace has no shard-dispatch at epoch >= 2 despite the re-dispatch"
say "epoch fence visible in the coordinator's trace: shard-dispatch at epoch >= 2"
grep '"ev":"shard-done"' "$WORK/c0.trace.jsonl" | grep '"job":"j000002"' | grep -q '"node":"local"' \
    || fail "coordinator trace merges no shard of the second job from node local"
say "the second job's shards merged from node local in the coordinator's trace"
say "PASS"
