#!/bin/sh
# Crash-recovery smoke test for cmd/gentriusd, exercised by CI: start the
# daemon with periodic checkpointing and a deterministic per-tree stall
# (GENTRIUS_FAULTS, so the run is slow enough to kill mid-flight), submit a
# finite job, SIGKILL the daemon once a checkpoint exists, restart it on the
# same data directory, and require the job to resume from the checkpoint and
# finish with the exact full stand. A third incarnation must adopt the
# finished job from the journal without re-running it. Its checkpoint, like
# every run's, is a version-2 task frontier.
#
# A second drill repeats the SIGKILL on a parallel (threads=4) job whose
# frontier is snapshotted on a wall-clock cadence (-checkpoint-interval):
# the restarted daemon must resume it and finish with counters exactly
# equal to the uninterrupted serial run's (the enumeration counters are
# schedule-independent).
# Needs only a Go toolchain, curl and POSIX sh.
set -eu

ADDR="127.0.0.1:${GENTRIUSD_PORT:-18081}"
BASE="http://$ADDR"
WORK="$(mktemp -d)"
DAEMON_PID=""
trap 'kill -9 "$DAEMON_PID" 2>/dev/null || true; rm -rf "$WORK"' EXIT

say() { echo "crash-recovery: $*"; }
fail() { echo "crash-recovery: FAIL: $*" >&2; exit 1; }

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

go build -o "$WORK/gentriusd" ./cmd/gentriusd

# Two interleaved caterpillars with an 8989-tree stand: finite, but at 1ms
# per streamed tree the first incarnation needs ~9s — plenty to kill it
# after the first periodic checkpoint (every 50ms, at the next
# stopping-rule check).
T1='(((((((((A,B),x0),x1),x2),x3),x4),x5),C),D);'
T2=$(echo "$T1" | tr x y)
STAND=8989

GENTRIUS_FAULTS="seed=1;treestream.every=1;treestream.delay=1ms" \
    "$WORK/gentriusd" -addr "$ADDR" -jobs 1 -checkpoint-interval 50ms \
    -data-dir "$WORK/data" 2>"$WORK/daemon1.log" &
DAEMON_PID=$!
wait_for '"ok"' "$BASE/healthz"

OUT=$(curl -sf "$BASE/jobs" -d "{\"trees\": [\"$T1\", \"$T2\"]}") || fail "submit: $OUT"
JOB=$(echo "$OUT" | grep -o '"id": *"[^"]*"' | head -1 | grep -o 'j[0-9]*')
[ -n "$JOB" ] || fail "no job id in: $OUT"
say "job $JOB submitted to throttled daemon"

# Wait for a periodic checkpoint and at least one spooled tree, then
# SIGKILL: no cleanup, no checkpoint-on-stop — recovery must come from the
# journal, the periodic checkpoint and the spool alone.
i=0
while [ ! -f "$WORK/data/$JOB.ckpt" ] || [ ! -s "$WORK/data/$JOB.trees" ]; do
    kill -0 "$DAEMON_PID" 2>/dev/null || { cat "$WORK/daemon1.log" >&2; fail "daemon died before checkpointing"; }
    i=$((i + 1))
    [ "$i" -lt 600 ] || fail "no periodic checkpoint after 60s"
    sleep 0.1
done
kill -9 "$DAEMON_PID"
wait "$DAEMON_PID" 2>/dev/null || true
say "daemon SIGKILLed with $JOB mid-run (checkpoint + spool present)"
# A serial job's checkpoints are task frontiers like a pooled job's.
grep -q '"payload":{"version":2,' "$WORK/data/$JOB.ckpt" || fail "the serial job's checkpoint is not a version-2 frontier: $(head -c 200 "$WORK/data/$JOB.ckpt")"
say "the serial job's checkpoint is a version-2 frontier"

"$WORK/gentriusd" -addr "$ADDR" -jobs 1 -data-dir "$WORK/data" \
    2>"$WORK/daemon2.log" &
DAEMON_PID=$!
wait_for '"ok"' "$BASE/healthz"
grep -q "recovered previous run" "$WORK/daemon2.log" || fail "no recovery notice in restart log"
grep -q "recovered previous run.*resumed=1" "$WORK/daemon2.log" || { cat "$WORK/daemon2.log" >&2; fail "job was not resumed from its checkpoint"; }
say "restarted daemon resumed $JOB from its checkpoint"

wait_for '"state": *"done"' "$BASE/jobs/$JOB"
STATUS=$(curl -sf "$BASE/jobs/$JOB")
echo "$STATUS" | grep -q '"resumed": *true' || fail "status not marked resumed: $STATUS"
GOT=$(echo "$STATUS" | grep -o '"stand_trees": *[0-9]*' | grep -o '[0-9]*')
[ "$GOT" = "$STAND" ] || fail "resumed run found $GOT stand trees, want $STAND"
# Reference counters for the parallel drill below: the totals are
# schedule-independent, so this finished serial run is the ground truth.
REF_STATES=$(echo "$STATUS" | grep -o '"intermediate_states": *[0-9]*' | grep -o '[0-9]*$' || true)
REF_DEAD=$(echo "$STATUS" | grep -o '"dead_ends": *[0-9]*' | grep -o '[0-9]*$' || true) # omitted when zero
LINES=$(curl -sf "$BASE/jobs/$JOB/trees" | grep -c '"tree"')
[ "$LINES" -ge "$STAND" ] || fail "spool replays $LINES trees, want >= $STAND (at-least-once)"
say "resumed run finished with the exact stand ($GOT trees; spool replays $LINES lines)"

kill -TERM "$DAEMON_PID"
STATUS=0
wait "$DAEMON_PID" || STATUS=$?
[ "$STATUS" = "0" ] || { cat "$WORK/daemon2.log" >&2; fail "daemon exited $STATUS after SIGTERM"; }

# Third incarnation: the finished job must be adopted from the journal —
# immediately done, same totals, no re-run.
"$WORK/gentriusd" -addr "$ADDR" -jobs 1 -data-dir "$WORK/data" \
    2>"$WORK/daemon3.log" &
DAEMON_PID=$!
wait_for '"ok"' "$BASE/healthz"
grep -q "recovered previous run.*adopted=1" "$WORK/daemon3.log" || { cat "$WORK/daemon3.log" >&2; fail "finished job not adopted on restart"; }
wait_for '"state": *"done"' "$BASE/jobs/$JOB"
GOT=$(curl -sf "$BASE/jobs/$JOB" | grep -o '"stand_trees": *[0-9]*' | grep -o '[0-9]*')
[ "$GOT" = "$STAND" ] || fail "adopted job reports $GOT stand trees, want $STAND"
say "second restart adopted finished $JOB from the journal"

kill -TERM "$DAEMON_PID"
STATUS=0
wait "$DAEMON_PID" || STATUS=$?
[ "$STATUS" = "0" ] || { cat "$WORK/daemon3.log" >&2; fail "daemon exited $STATUS after SIGTERM"; }

# ---- Parallel drill: SIGKILL a threads=4 job mid-run, resume it. ----
# Fresh data dir; frontier snapshots come from the wall-clock cadence
# (-checkpoint-interval briefly quiesces the worker pool each time).
GENTRIUS_FAULTS="seed=1;treestream.every=1;treestream.delay=1ms" \
    "$WORK/gentriusd" -addr "$ADDR" -jobs 1 -max-threads 4 \
    -checkpoint-interval 200ms -data-dir "$WORK/pdata" 2>"$WORK/daemon4.log" &
DAEMON_PID=$!
wait_for '"ok"' "$BASE/healthz"

OUT=$(curl -sf "$BASE/jobs" -d "{\"trees\": [\"$T1\", \"$T2\"], \"threads\": 4}") || fail "parallel submit: $OUT"
PJOB=$(echo "$OUT" | grep -o '"id": *"[^"]*"' | head -1 | grep -o 'j[0-9]*')
[ -n "$PJOB" ] || fail "no job id in: $OUT"
say "parallel job $PJOB (threads=4) submitted to throttled daemon"

i=0
while [ ! -f "$WORK/pdata/$PJOB.ckpt" ] || [ ! -s "$WORK/pdata/$PJOB.trees" ]; do
    kill -0 "$DAEMON_PID" 2>/dev/null || { cat "$WORK/daemon4.log" >&2; fail "daemon died before the parallel checkpoint"; }
    i=$((i + 1))
    [ "$i" -lt 600 ] || fail "no periodic parallel checkpoint after 60s"
    sleep 0.1
done
kill -9 "$DAEMON_PID"
wait "$DAEMON_PID" 2>/dev/null || true
say "daemon SIGKILLed with parallel $PJOB mid-run (frontier checkpoint + spool present)"

"$WORK/gentriusd" -addr "$ADDR" -jobs 1 -max-threads 4 -data-dir "$WORK/pdata" \
    2>"$WORK/daemon5.log" &
DAEMON_PID=$!
wait_for '"ok"' "$BASE/healthz"
grep -q "recovered previous run.*resumed=1" "$WORK/daemon5.log" || { cat "$WORK/daemon5.log" >&2; fail "parallel job was not resumed from its frontier checkpoint"; }
say "restarted daemon resumed parallel $PJOB from its frontier checkpoint"

wait_for '"state": *"done"' "$BASE/jobs/$PJOB"
STATUS=$(curl -sf "$BASE/jobs/$PJOB")
echo "$STATUS" | grep -q '"resumed": *true' || fail "parallel status not marked resumed: $STATUS"
PGOT=$(echo "$STATUS" | grep -o '"stand_trees": *[0-9]*' | grep -o '[0-9]*')
PSTATES=$(echo "$STATUS" | grep -o '"intermediate_states": *[0-9]*' | grep -o '[0-9]*$' || true)
PDEAD=$(echo "$STATUS" | grep -o '"dead_ends": *[0-9]*' | grep -o '[0-9]*$' || true)
[ "$PGOT" = "$STAND" ] || fail "resumed parallel run found $PGOT stand trees, want $STAND"
[ "$PSTATES" = "$REF_STATES" ] || fail "resumed parallel run: $PSTATES intermediate states, uninterrupted had $REF_STATES"
[ "${PDEAD:-0}" = "${REF_DEAD:-0}" ] || fail "resumed parallel run: ${PDEAD:-0} dead ends, uninterrupted had ${REF_DEAD:-0}"
PLINES=$(curl -sf "$BASE/jobs/$PJOB/trees" | grep -c '"tree"')
[ "$PLINES" -ge "$STAND" ] || fail "parallel spool replays $PLINES trees, want >= $STAND (at-least-once)"
say "resumed parallel run matches the uninterrupted counters exactly ($PGOT trees, $PSTATES states, ${PDEAD:-0} dead ends)"

kill -TERM "$DAEMON_PID"
STATUS=0
wait "$DAEMON_PID" || STATUS=$?
[ "$STATUS" = "0" ] || { cat "$WORK/daemon5.log" >&2; fail "daemon exited $STATUS after SIGTERM"; }
say "PASS"
