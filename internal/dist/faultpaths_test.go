package dist

import (
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"gentrius/internal/obs"
	"gentrius/internal/retry"
	"gentrius/internal/search"
)

// waitFor polls cond under real time.
func waitFor(t testing.TB, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestFleetCancelled: a cancelled fleet job returns StopCancelled with what
// was merged up to then — counters and trees — and its workers are fenced at
// their next heartbeat.
func TestFleetCancelled(t *testing.T) {
	cons := canonicalize(t, randomScenario(rand.New(rand.NewSource(101)), 15, 3, 6, 0.6))
	ref := serialRef(t, cons)
	peerA, peerB := newScriptedPeer("a"), newScriptedPeer("b")
	clock := NewVirtualClock(time.Unix(0, 0))
	coord := NewCoordinator(Config{Peers: []WorkerClient{peerA, peerB}, Shards: 2,
		Clock: clock, Retry: retry.Policy{Attempts: 1}})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var delivered int
	done := make(chan *Result, 1)
	go func() {
		res, err := coord.Run(ctx, "cancelled", cons, RunOptions{CollectTrees: true, InitialTree: -1,
			OnTrees: func(_ []byte, n int) { delivered += n }})
		if err != nil {
			t.Error(err)
		}
		done <- res
	}()
	merged := runShardToEnd(t, awaitDispatch(t, clock, time.Millisecond, peerA, peerB))
	left := awaitDispatch(t, clock, time.Millisecond, peerA, peerB)
	if resp := coord.HandleResult(merged); resp.Fenced {
		t.Fatal("honest result fenced")
	}
	cancel()
	res := <-done
	if res == nil {
		t.FailNow()
	}

	// Everything but the shard still out: the prefix and the merged shard.
	want := search.Counters{StandTrees: ref.StandTrees, IntermediateStates: ref.IntermediateStates, DeadEnds: ref.DeadEnds}
	rest := runShardToEnd(t, left).Counters
	want.StandTrees -= rest.StandTrees
	want.IntermediateStates -= rest.IntermediateStates
	want.DeadEnds -= rest.DeadEnds
	if res.Stop != search.StopCancelled || res.Counters != want {
		t.Fatalf("cancelled run: stop %v, counters %+v; want cancelled, %+v", res.Stop, res.Counters, want)
	}
	if len(res.Trees) != merged.TreesN || delivered != merged.TreesN {
		t.Fatalf("%d trees collected and %d delivered, want the merged shard's %d", len(res.Trees), delivered, merged.TreesN)
	}
	hb := &HeartbeatRequest{Proto: Proto, JobID: left.JobID, Shard: left.Shard, Epoch: left.Epoch}
	if resp := coord.HandleHeartbeat(hb); !resp.Fenced {
		t.Fatal("the cancelled job's worker was not fenced at its next heartbeat")
	}
}

// TestWorkerOrphaned: three heartbeats in a row fail while the shard runs. The
// worker stops heartbeating, finishes the shard and parks the result without
// trying to deliver it; the dispatch that follows the lease expiry adopts it.
func TestWorkerOrphaned(t *testing.T) {
	cons, ref, _ := wireScenario(t)
	tap := &wireTap{failBeats: true}
	f := startWireFleet(t, cons, tap, nil)
	for i := 0; i < orphanAfter; i++ {
		f.beat <- f.clock.Now()
		<-tap.seen
	}
	waitFor(t, "the orphaned worker to park its result", func() bool { return f.metrics.ResultsParked.Value() == 1 })
	if tap.results != 0 || f.metrics.HeartbeatFailures.Value() != orphanAfter {
		t.Fatalf("%d results sent and %d heartbeats failed, want 0 and %d: the result was not parked by an orphan",
			tap.results, f.metrics.HeartbeatFailures.Value(), orphanAfter)
	}
	var res *Result
	waitFor(t, "the parked result's adoption", func() bool {
		f.clock.Advance(10 * time.Second)
		select {
		case res = <-f.done:
		default:
		}
		return res != nil
	})
	assertMatchesSerial(t, res, ref)
	if res.Adopted != 1 || res.LeaseExpiries != 1 {
		t.Fatalf("%d adopted after %d lease expiries, want 1 and 1", res.Adopted, res.LeaseExpiries)
	}
}

// swapPeer is a peer whose process can be replaced.
type swapPeer struct{ w atomic.Pointer[Worker] }

func (p *swapPeer) Name() string { return "w" }

func (p *swapPeer) Dispatch(_ context.Context, req *DispatchRequest) (*DispatchResponse, error) {
	return p.w.Load().HandleDispatch(req), nil
}

// TestParkedSurvivesRestart: a worker that cannot reach its coordinator
// parks both shards' results in its data directory and goes away; a new worker
// on the same directory reloads them — skipping a corrupt file and one of
// another protocol version — and the dispatches after the lease expiry adopt
// them, removing the files.
func TestParkedSurvivesRestart(t *testing.T) {
	cons := canonicalize(t, randomScenario(rand.New(rand.NewSource(99)), 9, 3, 4, 0.65))
	ref := serialRef(t, cons)
	dir := t.TempDir()
	clock := NewVirtualClock(time.Unix(0, 0))
	metrics := NewMetrics(obs.NewRegistry())
	peer := &swapPeer{}
	peer.w.Store(NewWorker(WorkerConfig{Name: "w", DataDir: dir, Clock: clock, Metrics: metrics,
		Retry: retry.Policy{Attempts: 1},
		Dial:  func(string) CoordinatorClient { return failingCoordClient{} }}))
	coord := NewCoordinator(Config{Peers: []WorkerClient{peer}, Shards: 2, LeaseTTL: 200 * time.Millisecond,
		HeartbeatEvery: 50 * time.Millisecond, Clock: clock, Retry: retry.Policy{Attempts: 1}})
	done := make(chan *Result, 1)
	go func() {
		res, err := coord.Run(context.Background(), "restart", cons, RunOptions{CollectTrees: true, InitialTree: -1})
		if err != nil {
			t.Error(err)
		}
		done <- res
	}()
	waitFor(t, "both results to be parked, in memory and on disk", func() bool {
		parked, _ := filepath.Glob(filepath.Join(dir, "parked-*.json"))
		return metrics.ResultsParked.Value() == 2 && len(parked) == 2
	})

	// The restart, with two files the new process must not load.
	peer.w.Load().Shutdown()
	corrupt := filepath.Join(dir, "parked-corrupt.json")
	old, _ := json.Marshal(parkedResult{Fingerprint: "x", Result: &ShardResult{Proto: Proto - 1, JobID: "other"}})
	for path, data := range map[string][]byte{corrupt: []byte(`{"result":`), filepath.Join(dir, "parked-old.json"): old} {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	w2 := NewWorker(WorkerConfig{Name: "w", DataDir: dir, Clock: clock, Retry: retry.Policy{Attempts: 1},
		Dial: func(string) CoordinatorClient { return &LocalCoordinatorClient{C: coord} }})
	if len(w2.parked) != 2 {
		t.Fatalf("the restarted worker holds %d parked results, want the 2 of this protocol that parse", len(w2.parked))
	}
	peer.w.Store(w2)

	var res *Result
	waitFor(t, "the adoption of the reloaded results", func() bool {
		clock.Advance(50 * time.Millisecond)
		select {
		case res = <-done:
		default:
		}
		return res != nil
	})
	assertMatchesSerial(t, res, ref)
	if res.Adopted != 2 {
		t.Fatalf("%d results adopted, want 2", res.Adopted)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "parked-*.json")); len(left) != 2 {
		t.Fatalf("files left behind: %v, want the corrupt and the old one only", left)
	}
}

// TestProtoMismatch: a worker refuses a dispatch of another protocol version;
// a coordinator fences a heartbeat and a result of another version and stops
// dispatching to the peer that holds that lease, so the shard goes to a peer
// that agrees.
func TestProtoMismatch(t *testing.T) {
	w := NewWorker(WorkerConfig{Name: "w"})
	if resp := w.HandleDispatch(&DispatchRequest{Proto: Proto + 1, JobID: "j"}); resp.Accepted || resp.Parked != nil || w.ActiveShards() != 0 {
		t.Fatalf("dispatch of protocol %d answered %+v by a worker of protocol %d", Proto+1, resp, Proto)
	}

	cons := canonicalize(t, randomScenario(rand.New(rand.NewSource(101)), 15, 3, 6, 0.6))
	ref := serialRef(t, cons)
	peerA, peerB := newScriptedPeer("a"), newScriptedPeer("b")
	clock := NewVirtualClock(time.Unix(0, 0))
	metrics := NewMetrics(obs.NewRegistry())
	coord := NewCoordinator(Config{Peers: []WorkerClient{peerA, peerB}, Shards: 2, LeaseTTL: 100 * time.Millisecond,
		Clock: clock, Retry: retry.Policy{Attempts: 1}, Metrics: metrics})
	done := make(chan *Result, 1)
	go func() {
		res, err := coord.Run(context.Background(), "proto", cons, RunOptions{CollectTrees: true, InitialTree: -1})
		if err != nil {
			t.Error(err)
		}
		done <- res
	}()
	var dA, dB *DispatchRequest
	waitFor(t, "the initial dispatches", func() bool {
		select {
		case dA = <-peerA.dispatches:
		case dB = <-peerB.dispatches:
		default:
		}
		return dA != nil && dB != nil
	})
	if dA.Proto != Proto {
		t.Fatalf("dispatch carries protocol %d, want %d", dA.Proto, Proto)
	}

	// Peer a turns out to speak the version before: its result is not merged,
	// its heartbeat is fenced, and it is dead to the coordinator.
	stale := runShardToEnd(t, dA)
	stale.Proto = Proto - 1
	if resp := coord.HandleResult(stale); !resp.Fenced {
		t.Fatal("result of another protocol version merged")
	}
	hb := &HeartbeatRequest{JobID: dA.JobID, Shard: dA.Shard, Epoch: dA.Epoch, Checkpoint: dA.Checkpoint}
	if resp := coord.HandleHeartbeat(hb); !resp.Fenced {
		t.Fatal("heartbeat without a protocol version not fenced")
	}
	for _, p := range coord.Status().Peers {
		if p.Alive != (p.Name == "b") {
			t.Fatalf("peer %s alive=%v after peer a's messages of another version", p.Name, p.Alive)
		}
	}
	if v := metrics.WorkersLive.Value(); v != 1 {
		t.Fatalf("%d workers live, want 1", v)
	}

	if resp := coord.HandleResult(runShardToEnd(t, dB)); resp.Fenced {
		t.Fatal("peer b's result fenced")
	}
	again := awaitDispatch(t, clock, 10*time.Millisecond, peerB)
	if again.Shard != dA.Shard || again.Epoch != 2 {
		t.Fatalf("re-dispatch of shard %d at epoch %d, want shard %d at epoch 2", again.Shard, again.Epoch, dA.Shard)
	}
	select {
	case d := <-peerA.dispatches:
		t.Fatalf("dead peer a was dispatched shard %d", d.Shard)
	default:
	}
	if resp := coord.HandleResult(runShardToEnd(t, again)); resp.Fenced {
		t.Fatal("epoch-2 result fenced")
	}
	assertMatchesSerial(t, <-done, ref)
}
