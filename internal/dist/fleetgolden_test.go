// Golden fleet traces: a fully scripted 3-node fleet run (one coordinator,
// two hand-played workers with deliberately skewed clocks) whose per-node
// JSONL traces regenerate byte-identically. The committed traces under
// internal/tracereport/testdata feed the merge goldens (report + Perfetto
// export) and CI's trace-determinism job. Regenerate with
// `go test ./internal/dist -run FleetGolden -update`.
//
// The scenario injects one lease expiry: worker a accepts shard 0, gets one
// heartbeat through, then its heartbeats blackhole (sends keep appearing in
// a's own trace — that is the SendsLost signal); the lease expires and the
// shard re-dispatches to a at epoch 2, which completes. Worker b completes
// shard 1 without drama. Clock skew: a's trace timestamps run 400 virtual
// ms ahead of the coordinator, b's 1100 ahead, so the offline merge has
// real offsets to estimate from the dispatch/heartbeat RPC pairs.
package dist

import (
	"bytes"
	"context"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gentrius/internal/obs"
	"gentrius/internal/retry"
	"gentrius/internal/search"
	"gentrius/internal/tracereport"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden fleet trace files")

const goldenDir = "../tracereport/testdata"

var goldenFleetFiles = map[string]string{
	"coord": "fleet_coord.trace.jsonl",
	"a":     "fleet_worker_a.trace.jsonl",
	"b":     "fleet_worker_b.trace.jsonl",
}

// waitUntil polls cond under real time while the virtual clock stands
// still — the "let the woken goroutine finish emitting" half of the
// Advance/poll discipline that keeps trace bytes deterministic.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(200 * time.Microsecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// genFleetGoldenTraces plays the scripted 3-node run and returns the three
// per-node traces keyed coord/a/b.
func genFleetGoldenTraces(t *testing.T) map[string][]byte {
	t.Helper()
	rng := rand.New(rand.NewSource(101))
	cons := canonicalize(t, randomScenario(rng, 15, 3, 6, 0.6))
	ref := serialRef(t, cons)

	t0 := time.Unix(0, 0)
	clock := NewVirtualClock(t0)
	// Virtual-millisecond recorder clocks. The workers' clocks are skewed
	// ahead of the coordinator's by fixed offsets the merge must recover.
	coordMillis := func() int64 { return clock.Now().Sub(t0).Milliseconds() }
	var coordBuf, aBuf, bBuf bytes.Buffer
	coordRec := obs.NewRecorder(&coordBuf, coordMillis)
	recA := obs.NewRecorder(&aBuf, func() int64 { return coordMillis() + 400 })
	recB := obs.NewRecorder(&bBuf, func() int64 { return coordMillis() + 1100 })

	peerA, peerB := newScriptedPeer("a"), newScriptedPeer("b")
	coord := NewCoordinator(Config{
		Peers:          []WorkerClient{peerA, peerB},
		Shards:         2,
		LeaseTTL:       100 * time.Millisecond,
		HeartbeatEvery: 20 * time.Millisecond,
		Clock:          clock,
		Retry:          retry.Policy{Attempts: 1},
		Trace:          coordRec,
	})

	type runOut struct {
		res *Result
		err error
	}
	done := make(chan runOut, 1)
	go func() {
		res, err := coord.Run(context.Background(), "fleet-golden", cons,
			RunOptions{CollectTrees: true, InitialTree: -1})
		done <- runOut{res, err}
	}()

	// t=0: both shards dispatch (shard 0 → a, shard 1 → b; the least-loaded
	// pick is deterministic). No Advance until the emissions landed.
	waitUntil(t, "initial dispatches", func() bool {
		return coordRec.CountOf(obs.EvShardDispatch) == 2
	})
	d0, d1 := <-peerA.dispatches, <-peerB.dispatches
	if d0.Shard != 0 || d1.Shard != 1 || d0.Epoch != 1 || d1.Epoch != 1 {
		t.Fatalf("unexpected initial dispatches: shard %d e%d / shard %d e%d",
			d0.Shard, d0.Epoch, d1.Shard, d1.Epoch)
	}
	stA := newShardTracer(recA, "a", d0)
	stA.Begin(checkpointMassPPM(d0.Checkpoint))
	stB := newShardTracer(recB, "b", d1)
	stB.Begin(checkpointMassPPM(d1.Checkpoint))

	// hbOf builds a progress-free heartbeat: the dispatch checkpoint echoed
	// back. Valid protocol (a worker may checkpoint before retiring any
	// mass) and independent of engine internals, so the bytes stay stable.
	hbOf := func(d *DispatchRequest, node string, seq int64) *HeartbeatRequest {
		return &HeartbeatRequest{
			Proto: Proto, JobID: d.JobID, Shard: d.Shard, Epoch: d.Epoch,
			TraceID: d.TraceID, Node: node, Seq: seq,
			RemainingMass: d.Checkpoint.Frontier.RemainingMass(),
			Checkpoint:    d.Checkpoint,
		}
	}

	// t=20: first heartbeats, both delivered. Renews both leases to 120.
	clock.Advance(20 * time.Millisecond)
	stA.Checkpoint(d0.Checkpoint)
	stA.HeartbeatSend(1, checkpointMassPPM(d0.Checkpoint))
	if resp := coord.HandleHeartbeat(hbOf(d0, "a", 1)); resp.Fenced {
		t.Fatal("worker a's first heartbeat fenced")
	}
	stB.Checkpoint(d1.Checkpoint)
	stB.HeartbeatSend(1, checkpointMassPPM(d1.Checkpoint))
	if resp := coord.HandleHeartbeat(hbOf(d1, "b", 1)); resp.Fenced {
		t.Fatal("worker b's first heartbeat fenced")
	}

	// t=40: b completes shard 1 honestly; a's heartbeats start blackholing
	// (the send appears in a's trace, nothing reaches the coordinator).
	clock.Advance(20 * time.Millisecond)
	stA.HeartbeatSend(2, checkpointMassPPM(d0.Checkpoint))
	r1 := runShardToEnd(t, d1)
	r1.TraceID, r1.Node = d1.TraceID, "b"
	stB.End("done", r1.Counters)
	if resp := coord.HandleResult(r1); resp.Fenced {
		t.Fatal("worker b's result fenced")
	}
	waitUntil(t, "shard 1 merge", func() bool {
		return coordRec.CountOf(obs.EvShardDone) == 1
	})

	// t=60..120: a keeps sending into the void.
	for seq := int64(3); seq <= 6; seq++ {
		clock.Advance(20 * time.Millisecond)
		stA.HeartbeatSend(seq, checkpointMassPPM(d0.Checkpoint))
	}

	// t=121: a's lease (renewed to 120 by its one delivered heartbeat)
	// expires; shard 0 re-dispatches at epoch 2 — back to a, whose network
	// has healed.
	clock.Advance(1 * time.Millisecond)
	waitUntil(t, "lease expiry + re-dispatch", func() bool {
		return coordRec.CountOf(obs.EvLeaseExpire) == 1 &&
			coordRec.CountOf(obs.EvShardDispatch) == 3
	})
	d0b := <-peerA.dispatches
	if d0b.Shard != 0 || d0b.Epoch != 2 {
		t.Fatalf("re-dispatch shard %d epoch %d, want shard 0 epoch 2", d0b.Shard, d0b.Epoch)
	}
	stA2 := newShardTracer(recA, "a", d0b)
	stA2.Begin(checkpointMassPPM(d0b.Checkpoint))

	// Live introspection rides the same scripted moment: shard 0 leased at
	// epoch 2, shard 1 done, and worker b's heartbeat age is visible.
	st := coord.Status()
	if len(st.Jobs) != 1 || len(st.Jobs[0].Shards) != 2 {
		t.Fatalf("fleet status: %+v", st)
	}
	if s0 := st.Jobs[0].Shards[0]; s0.State != "leased" || s0.Epoch != 2 || s0.Peer != "a" {
		t.Fatalf("shard 0 status %+v, want leased epoch 2 on a", s0)
	}
	if s1 := st.Jobs[0].Shards[1]; s1.State != "done" || s1.RemainingMassPPM != 0 {
		t.Fatalf("shard 1 status %+v, want done with zero mass", s1)
	}
	fh := coord.Health()
	if fh.Role != "coordinator" || fh.Peers != 2 {
		t.Fatalf("fleet health %+v", fh)
	}
	if age := fh.PeerHeartbeatAgeSeconds["a"]; age != 0.101 {
		t.Fatalf("peer a heartbeat age %v, want 0.101", age)
	}
	if len(fh.TraceIDs) != 1 || fh.TraceIDs[0] != d0.TraceID {
		t.Fatalf("health trace ids %v, want [%s]", fh.TraceIDs, d0.TraceID)
	}

	// t=140: the zombie epoch-1 run sends once more and is fenced away; the
	// epoch-2 run heartbeats through (the hb-send/hb-recv pair the merge
	// uses to upper-bound a's clock offset).
	clock.Advance(19 * time.Millisecond)
	stA.HeartbeatSend(7, checkpointMassPPM(d0.Checkpoint))
	if resp := coord.HandleHeartbeat(hbOf(d0, "a", 7)); !resp.Fenced {
		t.Fatal("stale epoch-1 heartbeat not fenced")
	}
	stA.End("fenced", search.Counters{})
	stA2.Checkpoint(d0b.Checkpoint)
	stA2.HeartbeatSend(1, checkpointMassPPM(d0b.Checkpoint))
	if resp := coord.HandleHeartbeat(hbOf(d0b, "a", 1)); resp.Fenced {
		t.Fatal("epoch-2 heartbeat fenced")
	}

	// t=160: epoch 2 completes shard 0; the run finishes.
	clock.Advance(20 * time.Millisecond)
	r0 := runShardToEnd(t, d0b)
	r0.TraceID, r0.Node = d0b.TraceID, "a"
	stA2.End("done", r0.Counters)
	if resp := coord.HandleResult(r0); resp.Fenced {
		t.Fatal("epoch-2 result fenced")
	}
	var out runOut
	select {
	case out = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("fleet run did not finish")
	}
	if out.err != nil {
		t.Fatal(out.err)
	}
	assertMatchesSerial(t, out.res, ref)
	if out.res.LeaseExpiries != 1 {
		t.Fatalf("stats: %d lease expiries, want 1", out.res.LeaseExpiries)
	}
	if out.res.TraceID != fleetTraceID("fleet-golden", search.Fingerprint(cons)) {
		t.Fatalf("trace id %q not the deterministic fleetTraceID", out.res.TraceID)
	}

	for _, rec := range []*obs.Recorder{coordRec, recA, recB} {
		if err := rec.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	return map[string][]byte{
		"coord": coordBuf.Bytes(),
		"a":     aBuf.Bytes(),
		"b":     bBuf.Bytes(),
	}
}

// TestFleetGoldenTraces regenerates the committed per-node fleet traces and
// requires them byte-identical — the determinism contract CI's
// trace-determinism job (and the merge goldens) stand on.
func TestFleetGoldenTraces(t *testing.T) {
	got := genFleetGoldenTraces(t)
	for node, name := range goldenFleetFiles {
		path := filepath.Join(goldenDir, name)
		if *updateGolden {
			if err := os.MkdirAll(goldenDir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, got[node], 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[node], want) {
			t.Errorf("regenerated %s trace differs from %s (%d vs %d bytes); "+
				"run with -update if the protocol intentionally changed",
				node, path, len(got[node]), len(want))
		}
	}
}

// TestFleetGoldenMerge sanity-checks the merge of the freshly generated
// traces from the dist side (the byte-level report/Perfetto goldens live in
// internal/obs): offsets recovered exactly, every lifecycle reconstructed,
// zero orphans, blackholed worker ranked first.
func TestFleetGoldenMerge(t *testing.T) {
	got := genFleetGoldenTraces(t)
	var nodes []tracereport.NodeTrace
	for _, node := range []string{"coord", "a", "b"} {
		events, err := tracereport.ReadTrace(bytes.NewReader(got[node]))
		if err != nil {
			t.Fatalf("%s: %v", node, err)
		}
		nodes = append(nodes, tracereport.NodeTrace{Name: node, Events: events})
	}
	rep, err := tracereport.MergeFleet(nodes, "ms")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Orphans) != 0 {
		t.Fatalf("orphan spans: %v", rep.Orphans)
	}
	for _, n := range rep.Nodes {
		want := int64(0)
		switch n.Name {
		case "a":
			want = -400
		case "b":
			want = -1100
		}
		if n.Offset != want {
			t.Errorf("node %s offset %d (bounds [%d,%d]), want %d",
				n.Name, n.Offset, n.OffsetLo, n.OffsetHi, want)
		}
	}
	if len(rep.Shards) != 2 || rep.EpochsTotal != 3 || rep.Redispatches != 1 {
		t.Fatalf("lifecycles: %d shards, %d epochs, %d redispatches; want 2/3/1",
			len(rep.Shards), rep.EpochsTotal, rep.Redispatches)
	}
	s0 := rep.Shards[0]
	if s0.Epochs[0].Outcome != "expired" || s0.Epochs[1].Outcome != "merged" {
		t.Fatalf("shard 0 outcomes %q/%q, want expired/merged",
			s0.Epochs[0].Outcome, s0.Epochs[1].Outcome)
	}
	if lost := s0.Epochs[0].HBSends - s0.Epochs[0].HBRecvs; lost != 6 {
		t.Fatalf("shard 0 epoch 1 lost sends %d, want 6", lost)
	}
	if rep.Stragglers[0].Node != "a" {
		t.Fatalf("straggler ranking %+v: blackholed worker a not first", rep.Stragglers)
	}
	// The Perfetto export must contain the epoch 1 → epoch 2 re-dispatch
	// flow arrow (the "s"/"f" pair) and one process per node.
	var buf strings.Builder
	if err := rep.WriteChromeTrace(&buf, 1); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"redispatch"`, `"ph":"s"`, `"ph":"f"`,
		`coord (coordinator)`, `a (worker)`, `b (worker)`} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("fleet chrome trace missing %s", want)
		}
	}
}
