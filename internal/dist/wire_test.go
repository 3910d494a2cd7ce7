package dist

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"gentrius"
	"gentrius/internal/obs"
	"gentrius/internal/retry"
	"gentrius/internal/search"
	"gentrius/internal/tree"
)

// beatClock is a worker's clock in the scripted wire tests: virtual time,
// except that a heartbeat is due exactly when the test says so. After hands
// out the one channel the test sends on, and a send lands only when the
// worker is back in its select, the previous heartbeat answered.
type beatClock struct {
	*VirtualClock
	beat chan time.Time
}

func (c beatClock) After(time.Duration) <-chan time.Time { return c.beat }

// wireTap sits on a worker's line to its coordinator, adds up what the
// shard's trees cost on it, and plays the faults of a line at a chosen
// heartbeat. "Carrying" heartbeats are those with trees: one that falls
// before the engine's first tree, or between two finds, has none.
type wireTap struct {
	to   CoordinatorClient
	seen chan struct{} // one token per heartbeat, when it is answered or hangs

	mu        sync.Mutex
	beats     int // heartbeats sent
	carried   int // of which carrying
	results   int
	treeBytes int // bytes of Newick, newlines included, in every message

	// dropAnswer: the answer to that carrying heartbeat (1-based) is lost
	// after the coordinator acted on it, as at the rpcrecv fault site.
	dropAnswer int
	// hangAfter: once that many carrying heartbeats were answered the next
	// heartbeat hangs until gate is closed and then fails, as a request that
	// times out does.
	hangAfter int
	gate      chan struct{}
	// failBeats: no heartbeat gets through while it is set.
	failBeats bool
	// accepted is the checkpoint of the last heartbeat the coordinator took.
	accepted *search.Checkpoint
}

func (w *wireTap) Heartbeat(ctx context.Context, req *HeartbeatRequest) (*HeartbeatResponse, error) {
	w.mu.Lock()
	hang := w.hangAfter > 0 && w.carried >= w.hangAfter
	fail := w.failBeats
	w.beats++
	if !hang {
		w.treeBytes += blockBytes(req.Trees)
		if req.TreesN > 0 {
			w.carried++
		}
	}
	drop := req.TreesN > 0 && w.carried == w.dropAnswer
	w.mu.Unlock()
	if hang {
		w.seen <- struct{}{}
		<-w.gate
		return nil, errors.New("heartbeat timed out")
	}
	defer func() { w.seen <- struct{}{} }()
	if fail {
		return nil, errors.New("coordinator unreachable")
	}
	resp, err := w.to.Heartbeat(ctx, req)
	if err == nil && !resp.Fenced && req.Checkpoint != nil {
		w.mu.Lock()
		w.accepted = req.Checkpoint
		w.mu.Unlock()
	}
	if drop {
		return nil, errors.New("answer lost")
	}
	return resp, err
}

func blockBytes(blocks []string) (n int) {
	for _, b := range blocks {
		n += len(b)
	}
	return n
}

func (w *wireTap) Result(ctx context.Context, req *ShardResult) (*ResultResponse, error) {
	w.mu.Lock()
	w.results++
	w.treeBytes += blockBytes(req.Trees)
	w.mu.Unlock()
	return w.to.Result(ctx, req)
}

// wireFleet is one coordinator and one real worker behind a wireTap, one
// collecting shard, on virtual time. Only the worker's engine runs in real
// time, and it is braked (its trees pass the treestream stall site: 1 ms every
// 200 trees, over half a second for the stand) so that it outlasts a hundred
// heartbeats taken back to back, on any host.
type wireFleet struct {
	clock   *VirtualClock
	beat    chan time.Time
	tap     *wireTap
	worker  *Worker
	coord   *Coordinator
	metrics *Metrics
	done    chan *Result
}

// startWireFleet starts the job. peer, when set, wraps the worker's client
// (the coordinator's only peer).
func startWireFleet(t *testing.T, cons []*tree.Tree, tap *wireTap, peer func(WorkerClient) WorkerClient) *wireFleet {
	t.Helper()
	f := &wireFleet{
		clock:   NewVirtualClock(time.Unix(0, 0)),
		beat:    make(chan time.Time),
		tap:     tap,
		metrics: NewMetrics(obs.NewRegistry()),
		done:    make(chan *Result, 1),
	}
	tap.seen = make(chan struct{}, 1)
	brake, err := gentrius.ParseFaults("treestream.every=200;treestream.delay=1ms")
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorker(WorkerConfig{
		Name:    "w",
		Threads: 2,
		Clock:   beatClock{f.clock, f.beat},
		Retry:   retry.Policy{Attempts: 1},
		Fault:   brake,
		Metrics: f.metrics,
		Dial:    func(string) CoordinatorClient { return tap },
	})
	f.worker = w
	var client WorkerClient = &LocalWorkerClient{WorkerName: "w", W: w}
	if peer != nil {
		client = peer(client)
	}
	f.coord = NewCoordinator(Config{
		Peers:          []WorkerClient{client},
		Shards:         1,
		LeaseTTL:       time.Minute,
		HeartbeatEvery: time.Second,
		Clock:          f.clock,
		Retry:          retry.Policy{Attempts: 1},
		Metrics:        f.metrics,
	})
	tap.to = &LocalCoordinatorClient{C: f.coord}
	go func() {
		res, err := f.coord.Run(context.Background(), "wire", cons, search.Options{CollectTrees: true, InitialTree: -1})
		if err != nil {
			t.Error(err)
		}
		f.done <- res
	}()
	return f
}

// beats makes the worker heartbeat, each time once the heartbeat before has
// been answered, until n more heartbeats have carried trees.
func (f *wireFleet) beats(t *testing.T, n int) {
	t.Helper()
	carried := func() int {
		f.tap.mu.Lock()
		defer f.tap.mu.Unlock()
		return f.tap.carried
	}
	for sent, want := 0, carried()+n; carried() < want; sent++ {
		if sent == 20*n+100 {
			t.Fatalf("%d heartbeats and only %d carried trees", sent, carried())
		}
		select {
		case f.beat <- f.clock.Now():
			<-f.tap.seen
		case <-f.done:
			t.Fatalf("the shard ended after %d heartbeats, %d short of carrying trees: stand too small to cut that often", sent, want-carried())
		}
	}
}

func (f *wireFleet) wait(t *testing.T) *Result {
	t.Helper()
	select {
	case res := <-f.done:
		if res == nil {
			t.FailNow()
		}
		return res
	case <-time.After(60 * time.Second):
		t.Fatal("fleet run did not finish")
		return nil
	}
}

// wireScenario is a stand of 91 413 trees, 6.3 MB of Newick.
func wireScenario(t *testing.T) (cons []*tree.Tree, ref *gentrius.Result, treeBytes int) {
	t.Helper()
	cons = canonicalize(t, randomScenario(rand.New(rand.NewSource(308)), 18, 4, 6, 0.45))
	ref = serialRef(t, cons)
	for _, nw := range ref.Trees {
		treeBytes += len(nw) + 1
	}
	return cons, ref, treeBytes
}

// TestFleetTreesCrossOnce: however often a collecting shard is cut, with
// trees found between every two cuts, the tree bytes of all its heartbeats
// and its result together are the bytes of its trees, not a multiple of them,
// and the merged stand is the serial one.
func TestFleetTreesCrossOnce(t *testing.T) {
	cons, ref, treeBytes := wireScenario(t)
	for _, beats := range []int{1, 20} {
		tap := &wireTap{}
		f := startWireFleet(t, cons, tap, nil)
		f.beats(t, beats)
		res := f.wait(t)
		assertMatchesSerial(t, res, ref)
		if tap.carried != beats || tap.results != 1 {
			t.Fatalf("%d heartbeats with trees and %d results on the wire, want %d and 1", tap.carried, tap.results, beats)
		}
		if tap.treeBytes < treeBytes || float64(tap.treeBytes) > 1.1*float64(treeBytes) {
			t.Fatalf("%d heartbeats: %d tree bytes crossed the wire, the shard's trees are %d", beats, tap.treeBytes, treeBytes)
		}
		t.Logf("%d heartbeats with trees (%d in all): %.2f tree bytes on the wire per tree, %.2f in the stand",
			beats, tap.beats, float64(tap.treeBytes)/float64(ref.StandTrees), float64(treeBytes)/float64(ref.StandTrees))
	}
}

// TestFleetTreesLostAnswer: the coordinator takes the second carrying
// heartbeat's trees but its answer is lost, so the worker keeps its mark and
// the next heartbeat carries them again, from the same cut: the coordinator
// overwrites, and every tree is merged once.
func TestFleetTreesLostAnswer(t *testing.T) {
	cons, ref, treeBytes := wireScenario(t)
	tap := &wireTap{dropAnswer: 2}
	f := startWireFleet(t, cons, tap, nil)
	f.beats(t, 4)
	res := f.wait(t)
	assertMatchesSerial(t, res, ref)
	if v := f.metrics.HeartbeatFailures.Value(); v != 1 {
		t.Fatalf("%d heartbeats failed, want the one whose answer was dropped", v)
	}
	if tap.treeBytes <= treeBytes {
		t.Fatalf("%d tree bytes on the wire, %d in the stand: the unanswered heartbeat's trees were not sent again", tap.treeBytes, treeBytes)
	}
}

// epochRouter sends a shard's first epoch to one worker and the later ones
// to another, as a coordinator with two peers would after the first one's
// lease ran out.
type epochRouter struct{ first, later WorkerClient }

func (r epochRouter) Name() string { return r.first.Name() }

func (r epochRouter) Dispatch(ctx context.Context, req *DispatchRequest) (*DispatchResponse, error) {
	if req.Epoch == 1 {
		return r.first.Dispatch(ctx, req)
	}
	return r.later.Dispatch(ctx, req)
}

// TestFleetTreesLateResult: epoch 1 ships trees on three heartbeats, then
// its line hangs; the lease expires, epoch 2 resumes from the third cut and
// ships trees of its own. Then epoch 1 — which kept computing — delivers its
// result: the trees behind its third cut. The coordinator cuts the shard's
// log back to that cut, epoch 2's trees included, appends, and the merged
// stand is the serial one, each tree once.
func TestFleetTreesLateResult(t *testing.T) {
	cons, ref, _ := wireScenario(t)
	tap := &wireTap{hangAfter: 3, gate: make(chan struct{})}
	second := newScriptedPeer("second")
	f := startWireFleet(t, cons, tap, func(w WorkerClient) WorkerClient { return epochRouter{w, second} })
	f.beats(t, 3)
	f.beat <- f.clock.Now() // this one hangs
	<-tap.seen

	// Epoch 1 is silent from here on: its lease runs out.
	d2 := awaitDispatch(t, f.clock, 10*time.Second, second)
	if d2.Epoch != 2 || d2.Checkpoint.Counters != (search.Counters{}) {
		t.Fatalf("re-dispatch at epoch %d with counters %+v, want epoch 2 from zeroed counters", d2.Epoch, d2.Checkpoint.Counters)
	}
	// Epoch 2, played by hand: a few states further, one heartbeat with the
	// trees found on the way.
	cons2, err := tree.ReadLines(d2.Trees)
	if err != nil {
		t.Fatal(err)
	}
	part, err := gentrius.EnumerateStand(cons2, gentrius.Options{
		Threads: 1, MaxTrees: -1, MaxTime: -1, MaxStates: 50, CollectTrees: true,
		Checkpoint: &gentrius.CheckpointPolicy{Resume: d2.Checkpoint, OnStop: true},
	})
	if err != nil || part.Checkpoint == nil || len(part.Trees) == 0 {
		t.Fatalf("epoch 2's partial run: %v, checkpoint %v, %d trees", err, part.Checkpoint != nil, len(part.Trees))
	}
	hb := &HeartbeatRequest{Proto: Proto, JobID: d2.JobID, Shard: d2.Shard, Epoch: 2,
		RemainingMass: part.Checkpoint.Frontier.RemainingMass(), Checkpoint: part.Checkpoint}
	hb.Trees, hb.TreesN = blockOf(part.Trees)
	if resp := f.coord.HandleHeartbeat(hb); resp.Fenced {
		t.Fatal("epoch 2's heartbeat fenced")
	}

	// Epoch 1's hung heartbeat times out; its engine finishes and the result
	// goes out, from the cut of its third carrying heartbeat.
	close(tap.gate)
	res := f.wait(t)
	assertMatchesSerial(t, res, ref)
	if tap.results != 1 {
		t.Fatalf("epoch 1 sent %d results, want 1", tap.results)
	}
	if res.LeaseExpiries != 1 {
		t.Fatalf("%d lease expiries, want 1", res.LeaseExpiries)
	}
}
