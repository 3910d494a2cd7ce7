package dist

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gentrius"
	"gentrius/internal/bitset"
	"gentrius/internal/obs"
	"gentrius/internal/retry"
	"gentrius/internal/search"
	"gentrius/internal/tree"
)

// ---- scenario helpers (mirroring internal/parallel's test generators) ----

func names(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = string(rune('A' + i%26))
		if i >= 26 {
			out[i] += string(rune('0' + i/26))
		}
	}
	return out
}

func randomTree(taxa *tree.Taxa, rng *rand.Rand) *tree.Tree {
	t := tree.New(taxa)
	perm := rng.Perm(taxa.Len())
	t.AddFirstLeaf(perm[0])
	t.AddSecondLeaf(perm[1])
	for _, x := range perm[2:] {
		t.AttachLeaf(x, int32(rng.Intn(t.NumEdges())))
	}
	return t
}

func randomScenario(rng *rand.Rand, n, m, minCol int, pPresent float64) []*tree.Tree {
	taxa := tree.MustTaxa(names(n))
	truth := randomTree(taxa, rng)
	for {
		cols := make([]*bitset.Set, m)
		cover := bitset.New(n)
		for j := range cols {
			c := bitset.New(n)
			for i := 0; i < n; i++ {
				if rng.Float64() < pPresent {
					c.Add(i)
				}
			}
			cols[j] = c
			cover.UnionWith(c)
		}
		ok := cover.Count() == n
		for _, c := range cols {
			if c.Count() < minCol {
				ok = false
			}
		}
		if !ok {
			continue
		}
		out := make([]*tree.Tree, m)
		for j, c := range cols {
			out[j] = truth.Restrict(c)
		}
		return out
	}
}

// canonicalize round-trips constraints through their Newick serialization
// until the text is a fixed point, so the test's serial reference sees
// EXACTLY the taxon numbering the fleet protocol ships over the wire (the
// coordinator re-parses its input's serialization; ids are assigned by first
// appearance in the text, and heuristic tie-breaks depend on them, so a
// non-fixpoint input would make state counts legitimately differ).
func canonicalize(t testing.TB, cons []*tree.Tree) []*tree.Tree {
	t.Helper()
	join := func(ts []*tree.Tree) string {
		nw := make([]string, len(ts))
		for i, c := range ts {
			nw[i] = c.Newick()
		}
		return strings.Join(nw, "\n")
	}
	cur := join(cons)
	for i := 0; i < 5; i++ {
		out, _, err := gentrius.ReadTrees(strings.NewReader(cur), nil)
		if err != nil {
			t.Fatalf("canonicalize: %v", err)
		}
		next := join(out)
		if next == cur {
			return out
		}
		cur = next
	}
	t.Fatal("canonicalize: Newick round-trip never reached a fixed point")
	return nil
}

func sortedCopy(s []string) []string {
	c := append([]string(nil), s...)
	sort.Strings(c)
	return c
}

// serialRef runs the uninterrupted single-process reference enumeration.
func serialRef(t *testing.T, cons []*tree.Tree) *gentrius.Result {
	t.Helper()
	res, err := gentrius.EnumerateStand(cons, gentrius.Options{
		Threads: 1, InitialTree: -1,
		MaxTrees: -1, MaxStates: -1, MaxTime: -1,
		CollectTrees: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func assertMatchesSerial(t *testing.T, res *Result, ref *gentrius.Result) {
	t.Helper()
	want := search.Counters{StandTrees: ref.StandTrees,
		IntermediateStates: ref.IntermediateStates, DeadEnds: ref.DeadEnds}
	if res.Counters != want {
		t.Fatalf("fleet counters %+v, serial %+v", res.Counters, want)
	}
	got, exp := sortedCopy(res.Trees), sortedCopy(ref.Trees)
	if len(got) != len(exp) {
		t.Fatalf("fleet %d trees, serial %d", len(got), len(exp))
	}
	for i := range got {
		if got[i] != exp[i] {
			t.Fatalf("stand differs at %d: %q vs %q", i, got[i], exp[i])
		}
	}
}

// scriptedPeer is a WorkerClient the TEST plays the part of: dispatches are
// queued for the test body to answer by hand, making every protocol step an
// explicit, deterministic move.
type scriptedPeer struct {
	name       string
	dispatches chan *DispatchRequest
	down       atomic.Bool
}

func newScriptedPeer(name string) *scriptedPeer {
	return &scriptedPeer{name: name, dispatches: make(chan *DispatchRequest, 16)}
}

func (p *scriptedPeer) Name() string { return p.name }

func (p *scriptedPeer) Dispatch(_ context.Context, req *DispatchRequest) (*DispatchResponse, error) {
	if p.down.Load() {
		return nil, errors.New("peer down")
	}
	p.dispatches <- req
	return &DispatchResponse{Accepted: true}, nil
}

// blockOf is the wire form of a list of trees: one block, each tree
// newline-terminated.
func blockOf(trees []string) ([]string, int) {
	if len(trees) == 0 {
		return nil, 0
	}
	return []string{strings.Join(trees, "\n") + "\n"}, len(trees)
}

// runShardToEnd plays an honest worker: resume the dispatched checkpoint to
// exhaustion and return the since-dispatch result.
func runShardToEnd(t testing.TB, req *DispatchRequest) *ShardResult {
	t.Helper()
	cons, _, err := gentrius.ReadTrees(strings.NewReader(strings.Join(req.Trees, "\n")), nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := gentrius.EnumerateStand(cons, gentrius.Options{
		Threads: 1, MaxTrees: -1, MaxStates: -1, MaxTime: -1,
		CollectTrees: req.CollectTrees,
		Checkpoint:   &gentrius.CheckpointPolicy{Resume: req.Checkpoint},
	})
	if err != nil {
		t.Fatal(err)
	}
	r := &ShardResult{
		Proto: Proto, JobID: req.JobID, Shard: req.Shard, Epoch: req.Epoch,
		Stop: res.Stop,
		Counters: search.Counters{StandTrees: res.StandTrees,
			IntermediateStates: res.IntermediateStates, DeadEnds: res.DeadEnds},
	}
	r.Trees, r.TreesN = blockOf(res.Trees)
	return r
}

// awaitDispatch advances virtual time in small steps until one of the peers
// receives a dispatch (the coordinator's expiry/re-dispatch machinery runs
// off the same virtual clock).
func awaitDispatch(t *testing.T, clock *VirtualClock, step time.Duration, peers ...*scriptedPeer) *DispatchRequest {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		for _, p := range peers {
			select {
			case d := <-p.dispatches:
				return d
			default:
			}
		}
		clock.Advance(step)
		time.Sleep(200 * time.Microsecond)
	}
	t.Fatal("no dispatch arrived")
	return nil
}

// TestFleetProtocolScripted drives the full lease/heartbeat/fencing protocol
// move by move under virtual time: dispatch → partial progress heartbeat →
// lease expiry → re-dispatch from the heartbeat's checkpoint → stale-epoch
// fencing → exactly-once merge, with the final totals byte-equal to an
// uninterrupted serial run.
func TestFleetProtocolScripted(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	cons := canonicalize(t, randomScenario(rng, 15, 3, 6, 0.6))
	ref := serialRef(t, cons)
	if ref.IntermediateStates < 100 {
		t.Fatalf("scenario too small to interrupt meaningfully: %d states", ref.IntermediateStates)
	}

	clock := NewVirtualClock(time.Unix(0, 0))
	peerA, peerB := newScriptedPeer("a"), newScriptedPeer("b")
	reg := obs.NewRegistry()
	metrics := NewMetrics(reg)
	var traceBuf strings.Builder
	rec := obs.NewRecorder(&traceBuf, nil)

	coord := NewCoordinator(Config{
		Peers:          []WorkerClient{peerA, peerB},
		Shards:         2,
		LeaseTTL:       100 * time.Millisecond,
		HeartbeatEvery: 20 * time.Millisecond,
		Clock:          clock,
		Retry:          retry.Policy{Attempts: 1},
		Metrics:        metrics,
		Trace:          rec,
	})

	type runOut struct {
		res *Result
		err error
	}
	done := make(chan runOut, 1)
	go func() {
		res, err := coord.Run(context.Background(), "scripted", cons,
			RunOptions{CollectTrees: true, InitialTree: -1})
		done <- runOut{res, err}
	}()

	// Initial dispatch: shard 0 → peer a, shard 1 → peer b (least-loaded
	// pick is deterministic). Interrupt the heavier shard, complete the
	// lighter one honestly.
	d0 := awaitDispatch(t, clock, time.Millisecond, peerA, peerB)
	d1 := awaitDispatch(t, clock, time.Millisecond, peerA, peerB)
	if d0.Shard == d1.Shard {
		t.Fatalf("both dispatches for shard %d", d0.Shard)
	}
	partialOf := func(d *DispatchRequest) *gentrius.Result {
		consShard, _, err := gentrius.ReadTrees(strings.NewReader(strings.Join(d.Trees, "\n")), nil)
		if err != nil {
			t.Fatal(err)
		}
		p, err := gentrius.EnumerateStand(consShard, gentrius.Options{
			Threads: 1, MaxTrees: -1, MaxTime: -1, MaxStates: 10,
			CollectTrees: true,
			Checkpoint:   &gentrius.CheckpointPolicy{Resume: d.Checkpoint, OnStop: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	partial := partialOf(d0)
	if partial.Checkpoint == nil {
		d0, d1 = d1, d0
		partial = partialOf(d0)
	}
	if partial.Checkpoint == nil {
		t.Fatal("neither shard survives MaxStates=10; scenario too small")
	}
	if d0.Epoch != 1 || d1.Epoch != 1 {
		t.Fatalf("initial epochs %d/%d, want 1/1", d0.Epoch, d1.Epoch)
	}
	if c := d0.Checkpoint.Counters; c != (search.Counters{}) {
		t.Fatalf("dispatch checkpoint counters not zeroed: %+v", c)
	}

	// Shard d1 completes honestly.
	r1 := runShardToEnd(t, d1)
	if resp := coord.HandleResult(r1); resp.Fenced {
		t.Fatal("honest first result fenced")
	}
	// A duplicate delivery of the same result must be turned away.
	if resp := coord.HandleResult(r1); !resp.Fenced {
		t.Fatal("duplicate result was merged twice")
	}

	// Shard d0 makes partial progress (the state-limited run above is its
	// stand-in): heartbeat the interrupted snapshot, then go silent.
	cp1 := partial.Checkpoint
	hb := &HeartbeatRequest{
		Proto: Proto, JobID: d0.JobID, Shard: d0.Shard, Epoch: d0.Epoch,
		RemainingMass: cp1.Frontier.RemainingMass(),
		Checkpoint:    cp1,
	}
	hb.Trees, hb.TreesN = blockOf(partial.Trees)
	if resp := coord.HandleHeartbeat(hb); resp.Fenced {
		t.Fatal("live heartbeat fenced")
	}

	// Silence. The lease expires and the shard is re-dispatched — from the
	// heartbeat's checkpoint, at the next epoch.
	d0b := awaitDispatch(t, clock, 5*time.Millisecond, peerA, peerB)
	if d0b.Shard != d0.Shard {
		t.Fatalf("re-dispatch for shard %d, want %d", d0b.Shard, d0.Shard)
	}
	if d0b.Epoch != 2 {
		t.Fatalf("re-dispatch epoch %d, want 2", d0b.Epoch)
	}
	if c := d0b.Checkpoint.Counters; c != (search.Counters{}) {
		t.Fatalf("re-dispatch counters not zeroed: %+v", c)
	}
	gotMass := d0b.Checkpoint.Frontier.RemainingMass()
	wantMass := cp1.Frontier.RemainingMass()
	if gotMass != wantMass {
		t.Fatalf("re-dispatch frontier mass %v, want the checkpoint's %v", gotMass, wantMass)
	}

	// The old epoch wakes up and heartbeats again: fenced.
	if resp := coord.HandleHeartbeat(hb); !resp.Fenced {
		t.Fatal("stale-epoch heartbeat not fenced")
	}

	// The new epoch finishes the remainder.
	r0 := runShardToEnd(t, d0b)
	if resp := coord.HandleResult(r0); resp.Fenced {
		t.Fatal("epoch-2 result fenced")
	}

	out := <-done
	if out.err != nil {
		t.Fatal(out.err)
	}
	assertMatchesSerial(t, out.res, ref)
	if out.res.LeaseExpiries != 1 {
		t.Fatalf("stats: %d lease expiries, want 1", out.res.LeaseExpiries)
	}

	// Acceptance: expiry and re-dispatch observable in obs counters + trace.
	if v := metrics.LeaseExpiries.Value(); v != 1 {
		t.Fatalf("lease-expiry counter %d, want 1", v)
	}
	if v := metrics.ShardsDispatched.Value(); v != 3 {
		t.Fatalf("dispatch counter %d, want 3", v)
	}
	if v := metrics.Fenced.Value(); v < 2 {
		t.Fatalf("fenced counter %d, want >= 2", v)
	}
	for _, ev := range []string{obs.EvShardDispatch, obs.EvLeaseExpire, obs.EvShardDone, obs.EvShardFenced} {
		if rec.CountOf(ev) == 0 {
			t.Fatalf("trace has no %q event", ev)
		}
	}
}

// TestFleetLocalFallback: every peer is unreachable from the first dispatch
// on — the coordinator must finish every shard locally and still produce the
// exact stand.
func TestFleetLocalFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	cons := canonicalize(t, randomScenario(rng, 11, 3, 5, 0.6))
	ref := serialRef(t, cons)

	peer := newScriptedPeer("dead")
	peer.down.Store(true)
	coord := NewCoordinator(Config{
		Peers:   []WorkerClient{peer},
		Shards:  2,
		Retry:   retry.Policy{Attempts: 2, Base: time.Millisecond},
		Threads: 2,
	})
	res, err := coord.Run(context.Background(), "fallback", cons,
		RunOptions{CollectTrees: true, InitialTree: -1})
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesSerial(t, res, ref)
	if res.LocalShards != 2 {
		t.Fatalf("local shards %d, want 2", res.LocalShards)
	}
}

// TestFleetDispatchRetry: the first dispatch attempt's send fails via the
// rpcsend fault site; the jittered retry succeeds and the run completes
// without any lease churn.
func TestFleetDispatchRetry(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	cons := canonicalize(t, randomScenario(rng, 11, 3, 5, 0.6))
	ref := serialRef(t, cons)

	fault, err := gentrius.ParseFaults("rpcsend.nth=1")
	if err != nil {
		t.Fatal(err)
	}
	var retries atomic.Int64
	peerA, peerB := newScriptedPeer("a"), newScriptedPeer("b")
	coord := NewCoordinator(Config{
		Peers:  []WorkerClient{peerA, peerB},
		Shards: 2,
		Retry: retry.Policy{Attempts: 3, Base: time.Millisecond,
			OnRetry: func(int, error) { retries.Add(1) }},
		Fault: fault,
	})

	done := make(chan *Result, 1)
	go func() {
		res, err := coord.Run(context.Background(), "retry", cons,
			RunOptions{CollectTrees: true, InitialTree: -1})
		if err != nil {
			t.Error(err)
		}
		done <- res
	}()
	for i := 0; i < 2; i++ {
		var d *DispatchRequest
		select {
		case d = <-peerA.dispatches:
		case d = <-peerB.dispatches:
		case <-time.After(10 * time.Second):
			t.Fatal("no dispatch")
		}
		if resp := coord.HandleResult(runShardToEnd(t, d)); resp.Fenced {
			t.Fatal("result fenced")
		}
	}
	res := <-done
	if res == nil {
		t.Fatal("run failed")
	}
	assertMatchesSerial(t, res, ref)
	if retries.Load() == 0 {
		t.Fatal("rpcsend fault injected but no retry observed")
	}
	if res.LeaseExpiries != 0 {
		t.Fatalf("unexpected lease expiries: %d", res.LeaseExpiries)
	}
}

// seriesOf lists every series reg holds, sorted.
func seriesOf(reg *obs.Registry) []string {
	var out []string
	for name := range reg.Snapshot() {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// TestMetricsBoundedInShards is the fleet twin of internal/service's
// TestMetricsBoundedInJobs: a run whose one lease expires and whose shard is
// re-dispatched at the next epoch leaves the registry with exactly the
// series NewMetrics gave it. The shard's epoch is Status()'s to show while the
// job runs, and the aggregates count the expiry.
func TestMetricsBoundedInShards(t *testing.T) {
	cons := canonicalize(t, randomScenario(rand.New(rand.NewSource(101)), 15, 3, 6, 0.6))
	clock := NewVirtualClock(time.Unix(0, 0))
	peerA, peerB := newScriptedPeer("a"), newScriptedPeer("b")
	reg := obs.NewRegistry()
	metrics := NewMetrics(reg)
	coord := NewCoordinator(Config{
		Peers:          []WorkerClient{peerA, peerB},
		Shards:         2,
		LeaseTTL:       100 * time.Millisecond,
		HeartbeatEvery: 20 * time.Millisecond,
		Clock:          clock,
		Retry:          retry.Policy{Attempts: 1},
		Metrics:        metrics,
	})
	before := seriesOf(reg)

	var res *Result
	done := make(chan error, 1)
	go func() {
		var err error
		res, err = coord.Run(context.Background(), "bounded", cons, RunOptions{CollectTrees: true, InitialTree: -1})
		done <- err
	}()
	silent := awaitDispatch(t, clock, time.Millisecond, peerA, peerB)
	honest := awaitDispatch(t, clock, time.Millisecond, peerA, peerB)
	if resp := coord.HandleResult(runShardToEnd(t, honest)); resp.Fenced {
		t.Fatal("honest result fenced")
	}
	// The other worker never heartbeats: its lease runs out.
	again := awaitDispatch(t, clock, 5*time.Millisecond, peerA, peerB)
	if again.Shard != silent.Shard || again.Epoch != 2 {
		t.Fatalf("re-dispatch of shard %d at epoch %d, want shard %d at epoch 2", again.Shard, again.Epoch, silent.Shard)
	}
	st := coord.Status()
	if len(st.Jobs) != 1 || len(st.Jobs[0].Shards) != 2 {
		t.Fatalf("fleet status: %+v", st)
	}
	if s := st.Jobs[0].Shards[silent.Shard]; s.State != "leased" || s.Epoch != 2 {
		t.Fatalf("status of the re-dispatched shard %+v, want leased at epoch 2", s)
	}
	if s := st.Jobs[0].Shards[honest.Shard]; s.State != "done" || s.Epoch != 1 {
		t.Fatalf("status of the merged shard %+v, want done at epoch 1", s)
	}
	if resp := coord.HandleResult(runShardToEnd(t, again)); resp.Fenced {
		t.Fatal("epoch-2 result fenced")
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	assertMatchesSerial(t, res, serialRef(t, cons))

	if after := seriesOf(reg); !slices.Equal(after, before) {
		t.Fatalf("the series set moved with the shards.\nbefore the run: %q\nafter: %q", before, after)
	}
	if e := metrics.LeaseExpiries.Value(); e != 1 {
		t.Fatalf("%d lease expiries counted, want 1", e)
	}
}
