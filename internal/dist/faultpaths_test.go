package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"gentrius"
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

// recordingPeer passes dispatches on to its worker and keeps each.
type recordingPeer struct {
	WorkerClient
	mu   sync.Mutex
	seen []*DispatchRequest
}

func (p *recordingPeer) Dispatch(ctx context.Context, req *DispatchRequest) (*DispatchResponse, error) {
	p.mu.Lock()
	p.seen = append(p.seen, req)
	p.mu.Unlock()
	return p.WorkerClient.Dispatch(ctx, req)
}

func (p *recordingPeer) dispatches() []*DispatchRequest {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]*DispatchRequest(nil), p.seen...)
}

// TestWorkerOrphaned: two heartbeats with trees get through, then three in a
// row fail while the shard runs. The worker cancels its run and sends no
// result; once the lease expires the shard is dispatched again, from the
// checkpoint of the last heartbeat the coordinator took, and the merged
// stand is the serial one.
func TestWorkerOrphaned(t *testing.T) {
	cons, ref, _ := wireScenario(t)
	tap := &wireTap{}
	peer := &recordingPeer{}
	f := startWireFleet(t, cons, tap, func(w WorkerClient) WorkerClient { peer.WorkerClient = w; return peer })
	f.beats(t, 2)
	tap.mu.Lock()
	tap.failBeats = true
	accepted := tap.accepted
	tap.mu.Unlock()
	for i := 0; i < orphanAfter; i++ {
		f.beat <- f.clock.Now()
		<-tap.seen
	}
	waitFor(t, "the orphaned worker to stop its run", func() bool { return f.worker.ActiveShards() == 0 })
	tap.mu.Lock()
	results := tap.results
	tap.failBeats = false
	tap.mu.Unlock()
	if results != 0 || f.metrics.HeartbeatFailures.Value() != orphanAfter {
		t.Fatalf("%d results sent and %d heartbeats failed, want 0 and %d",
			results, f.metrics.HeartbeatFailures.Value(), orphanAfter)
	}

	waitFor(t, "the re-dispatch after the lease expiry", func() bool {
		f.clock.Advance(10 * time.Second)
		return len(peer.dispatches()) == 2
	})
	d2 := peer.dispatches()[1]
	want, _ := json.Marshal(accepted.Frontier)
	got, _ := json.Marshal(d2.Checkpoint.Frontier)
	if d2.Epoch != 2 || d2.Checkpoint.Counters != (search.Counters{}) || !bytes.Equal(got, want) {
		t.Fatalf("re-dispatch at epoch %d with counters %+v, want epoch 2 from the last accepted frontier, counters zeroed",
			d2.Epoch, d2.Checkpoint.Counters)
	}
	res := f.wait(t)
	assertMatchesSerial(t, res, ref)
	if res.LeaseExpiries != 1 || tap.results != 1 {
		t.Fatalf("%d lease expiries and %d results, want 1 and epoch 2's 1", res.LeaseExpiries, tap.results)
	}
}

// TestFleetShardFails: one of two workers panics at its first engine step.
// It reports the failure and the job fails once with the panic value: no
// lease expires and no shard is dispatched again.
func TestFleetShardFails(t *testing.T) {
	cons := canonicalize(t, randomScenario(rand.New(rand.NewSource(81)), 12, 3, 5, 0.6))
	metrics := NewMetrics(obs.NewRegistry())
	f := newFleet(t, 2, Config{Shards: 2, LeaseTTL: 2 * time.Second, HeartbeatEvery: 20 * time.Millisecond,
		Metrics: metrics}, []string{"enginestep.every=1", ""})
	defer func() {
		for _, w := range f.workers {
			w.Shutdown()
		}
	}()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() { // a deadline in virtual time: a shard retried for ever fails the test
		select {
		case <-f.clock.Until(time.Unix(0, 0).Add(20 * time.Second)):
			cancel()
		case <-ctx.Done():
		}
	}()
	_, err := f.coord.Run(ctx, "fails", cons, RunOptions{CollectTrees: true, InitialTree: -1})
	if err == nil || !strings.Contains(err.Error(), "injected panic at enginestep") ||
		!strings.Contains(err.Error(), "failed on a:") {
		t.Fatalf("run returned %v; want the panic of worker a's shard", err)
	}
	if d := metrics.ShardsDispatched.Value(); d != 2 {
		t.Fatalf("%d dispatches, want one per shard", d)
	}
	if e := metrics.LeaseExpiries.Value(); e != 0 {
		t.Fatalf("%d lease expiries, want none", e)
	}
}

// TestFleetTimeLimit: the peers never finish, so only the coordinator's
// clock can end the job, at MaxTime after the start of Run.
func TestFleetTimeLimit(t *testing.T) {
	cons := canonicalize(t, randomScenario(rand.New(rand.NewSource(101)), 15, 3, 6, 0.6))
	peerA, peerB := newScriptedPeer("a"), newScriptedPeer("b")
	clock := NewVirtualClock(time.Unix(0, 0))
	coord := NewCoordinator(Config{Peers: []WorkerClient{peerA, peerB}, Shards: 2, LeaseTTL: 2 * time.Second,
		Clock: clock, Retry: retry.Policy{Attempts: 1}})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan *Result, 1)
	go func() {
		res, err := coord.Run(ctx, "timelimit", cons, RunOptions{InitialTree: -1,
			Limits: search.Limits{MaxTime: 5 * time.Second}})
		if err != nil {
			t.Error(err)
		}
		done <- res
	}()
	var res *Result
	waitFor(t, "the time limit", func() bool {
		if clock.Now().After(time.Unix(0, 0).Add(time.Minute)) {
			cancel() // a deadline in virtual time: the limit was not enforced
		}
		clock.Advance(100 * time.Millisecond)
		select {
		case res = <-done:
		default:
		}
		return res != nil
	})
	if res.Stop != search.StopTimeLimit {
		t.Fatalf("run stopped %v at %v, want time-limit at 5s", res.Stop, clock.Now().Sub(time.Unix(0, 0)))
	}
}

// localRuns counts the goroutines running a shard in the coordinator's
// process.
func localRuns() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Count(string(buf[:n]), "dist.(*Worker).runShard.func")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// TestFleetTimeLimitStopsLocalRuns: with no peers the shards run in the
// coordinator's process, braked to outlast the test; when the time limit ends
// the job, its local runs end too instead of enumerating on unseen.
func TestFleetTimeLimitStopsLocalRuns(t *testing.T) {
	cons := canonicalize(t, randomScenario(rand.New(rand.NewSource(308)), 18, 4, 6, 0.45))
	fault, err := gentrius.ParseFaults("treestream.every=1;treestream.delay=1ms")
	if err != nil {
		t.Fatal(err)
	}
	clock := NewVirtualClock(time.Unix(0, 0))
	coord := NewCoordinator(Config{Shards: 2, Clock: clock, Fault: fault})
	before := localRuns()
	done := make(chan *Result, 1)
	go func() {
		res, err := coord.Run(context.Background(), "local-timelimit", cons, RunOptions{CollectTrees: true,
			InitialTree: -1, Limits: search.Limits{MaxTime: 5 * time.Second}})
		if err != nil {
			t.Error(err)
		}
		done <- res
	}()
	waitFor(t, "the local runs to start", func() bool { return localRuns() == before+2 })
	clock.Advance(5*time.Second + time.Millisecond)
	res := <-done
	if res == nil || res.Stop != search.StopTimeLimit || res.LocalShards != 2 {
		t.Fatalf("run returned %+v, want time-limit with 2 local shards", res)
	}
	for deadline := time.Now().Add(10 * time.Second); localRuns() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d local runs still enumerating 10 s after the job ended", localRuns()-before)
		}
	}
}

// TestFleetSinkPanics: an OnTree that panics on its first tree fails the job
// with the panic value, as it fails a local run, and leaves the coordinator
// serving: the job id can be run again.
func TestFleetSinkPanics(t *testing.T) {
	cons := canonicalize(t, randomScenario(rand.New(rand.NewSource(101)), 15, 3, 6, 0.6))
	peerA, peerB := newScriptedPeer("a"), newScriptedPeer("b")
	clock := NewVirtualClock(time.Unix(0, 0))
	coord := NewCoordinator(Config{Peers: []WorkerClient{peerA, peerB}, Shards: 2,
		Clock: clock, Retry: retry.Policy{Attempts: 1}})
	run := func(onTree func(string)) (*Result, error) {
		type out struct {
			res *Result
			err error
		}
		done := make(chan out, 1)
		go func() {
			res, err := coord.Run(context.Background(), "sink", cons, RunOptions{InitialTree: -1, OnTree: onTree})
			done <- out{res, err}
		}()
		for range 2 {
			coord.HandleResult(runShardToEnd(t, awaitDispatch(t, clock, time.Millisecond, peerA, peerB)))
		}
		o := <-done
		return o.res, o.err
	}

	_, err := run(func(string) { panic("sink") })
	var pe *search.PanicError
	if !errors.As(err, &pe) || pe.Value != "sink" {
		t.Fatalf("run with a panicking sink returned %v, want a *search.PanicError of the panic", err)
	}
	trees := 0
	res, err := run(func(string) { trees++ })
	if err != nil || res.Stop != search.StopExhausted || int64(trees) != res.Counters.StandTrees {
		t.Fatalf("second run of the job id: %v, %+v, %d trees", err, res, trees)
	}
}

// TestProtoMismatch: a worker refuses a dispatch of another protocol version;
// a coordinator fences a heartbeat and a result of another version and stops
// dispatching to the peer that holds that lease, so the shard goes to a peer
// that agrees.
func TestProtoMismatch(t *testing.T) {
	w := NewWorker(WorkerConfig{Name: "w"})
	if resp := w.HandleDispatch(&DispatchRequest{Proto: Proto + 1, JobID: "j"}); resp.Accepted || w.ActiveShards() != 0 {
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
