package dist

import (
	"bytes"
	"context"
	"math/rand"
	"testing"
	"time"

	"gentrius"
	"gentrius/internal/obs"
	"gentrius/internal/retry"
	"gentrius/internal/tracereport"
	"gentrius/internal/tree"
)

// fleet wires a coordinator to nWorkers real in-process Workers over the
// in-memory transport, all on one virtual clock. faults[i] (optional) is a
// faultinject spec for worker i, so e.g. one worker's heartbeats can be
// black-holed while the other runs clean.
type fleet struct {
	clock   *VirtualClock
	coord   *Coordinator
	workers []*Worker
	stopAdv chan struct{}
}

func newFleet(t *testing.T, nWorkers int, cfg Config, faults []string) *fleet {
	t.Helper()
	f := &fleet{
		clock:   NewVirtualClock(time.Unix(0, 0)),
		stopAdv: make(chan struct{}),
	}
	var peers []WorkerClient
	for i := 0; i < nWorkers; i++ {
		var inj *gentrius.FaultInjector
		if i < len(faults) && faults[i] != "" {
			var err error
			inj, err = gentrius.ParseFaults(faults[i])
			if err != nil {
				t.Fatal(err)
			}
		}
		w := NewWorker(WorkerConfig{
			Name:  string(rune('a' + i)),
			Clock: f.clock,
			Retry: retry.Policy{Attempts: 2, Base: time.Millisecond},
			Fault: inj,
			Dial: func(string) CoordinatorClient {
				return &LocalCoordinatorClient{C: f.coord}
			},
		})
		f.workers = append(f.workers, w)
		peers = append(peers, &LocalWorkerClient{WorkerName: w.cfg.Name, W: w})
	}
	cfg.Peers = peers
	cfg.Clock = f.clock
	if cfg.Retry.Attempts == 0 {
		cfg.Retry = retry.Policy{Attempts: 2, Base: time.Millisecond}
	}
	f.coord = NewCoordinator(cfg)

	// Auto-advancer: virtual time moves in small deterministic steps while
	// the enumeration makes real progress underneath.
	go func() {
		for {
			select {
			case <-f.stopAdv:
				return
			default:
				f.clock.Advance(2 * time.Millisecond)
				time.Sleep(200 * time.Microsecond)
			}
		}
	}()
	t.Cleanup(func() { close(f.stopAdv) })
	return f
}

func (f *fleet) run(t *testing.T, jobID string, cons []*tree.Tree) *Result {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	res, err := f.coord.Run(ctx, jobID, cons, RunOptions{CollectTrees: true, InitialTree: -1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stop != 0 { // search.StopExhausted
		t.Fatalf("fleet run stopped with %v, want exhausted", res.Stop)
	}
	return res
}

// TestFleetEndToEnd: two real workers, no faults — the distributed totals
// and the stand itself match the serial reference exactly, across several
// random scenarios. Run with -race this also hammers the dispatch /
// heartbeat / merge locking.
func TestFleetEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for scen := 0; scen < 3; scen++ {
		cons := canonicalize(t, randomScenario(rng, 10+rng.Intn(4), 3, 5, 0.6))
		ref := serialRef(t, cons)
		f := newFleet(t, 2, Config{
			Shards:         4,
			LeaseTTL:       200 * time.Millisecond,
			HeartbeatEvery: 20 * time.Millisecond,
		}, nil)
		res := f.run(t, "e2e", cons)
		assertMatchesSerial(t, res, ref)
		if res.LeaseExpiries != 0 {
			t.Fatalf("scen %d: %d lease expiries without faults", scen, res.LeaseExpiries)
		}
	}
}

// TestFleetHeartbeatBlackhole: worker a's heartbeats all vanish (seeded
// heartbeat fault site), so every lease it holds expires and its shards are
// re-dispatched. Its completed epochs still race the replacements through
// HandleResult — the per-epoch bases and first-completion-wins make the
// merge exactly-once, so the totals stay byte-equal to the serial run.
func TestFleetHeartbeatBlackhole(t *testing.T) {
	rng := rand.New(rand.NewSource(308))
	cons := canonicalize(t, randomScenario(rng, 18, 4, 6, 0.45))
	ref := serialRef(t, cons)
	if ref.IntermediateStates < 5000 {
		t.Fatalf("scenario too small (%d states) to observe lease churn", ref.IntermediateStates)
	}

	// Worker a's first two heartbeats are black-holed; with a 60ms lease
	// and a 20ms cadence that guarantees its initial lease expires while
	// the shard is still running, after which heartbeats flow again and
	// the re-dispatched epoch completes normally. "Still running" is real
	// time against virtual: worker a's engine is braked (its trees pass the
	// treestream stall site on their way to the shard's log: 1 ms every 200
	// trees), which makes its shard outlast the lease a hundred times over.
	f := newFleet(t, 2, Config{
		Shards:         2,
		Threads:        2,
		LeaseTTL:       60 * time.Millisecond,
		HeartbeatEvery: 20 * time.Millisecond,
	}, []string{"heartbeat.every=1;heartbeat.limit=2;treestream.every=200;treestream.delay=1ms", ""})
	res := f.run(t, "blackhole", cons)
	assertMatchesSerial(t, res, ref)
	if res.LeaseExpiries == 0 {
		t.Fatal("black-holed heartbeats never expired a lease")
	}
}

// TestFleetRPCFaults: both workers suffer seeded rpcsend/rpcrecv failures on
// heartbeats and results; retries (and, where retries exhaust, lease
// recovery) must still converge on the exact serial totals.
func TestFleetRPCFaults(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	cons := canonicalize(t, randomScenario(rng, 12, 3, 5, 0.6))
	ref := serialRef(t, cons)

	spec := "rpcsend.every=3;rpcrecv.every=5"
	f := newFleet(t, 2, Config{
		Shards:         3,
		LeaseTTL:       100 * time.Millisecond,
		HeartbeatEvery: 20 * time.Millisecond,
	}, []string{spec, spec})
	res := f.run(t, "rpcfaults", cons)
	assertMatchesSerial(t, res, ref)
}

// TestFleetWorkerEngineEventsCarryShardTags: a tracing worker threads a
// With-derived recorder into the engine, so every task-level event it emits
// during a real shard run carries the fleet context — {trace, job, node}
// tags plus {shard, epoch} fields — without the engine knowing the fleet
// exists. This is the lineage the fleet merge joins on. The worker runs
// two threads: a one-thread shard runs on the serial runner, which emits no
// task events.
func TestFleetWorkerEngineEventsCarryShardTags(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	cons := canonicalize(t, randomScenario(rng, 9, 3, 4, 0.65))

	clock := NewVirtualClock(time.Unix(0, 0))
	var buf bytes.Buffer
	rec := obs.NewRecorder(&buf, nil)
	var coord *Coordinator
	w := NewWorker(WorkerConfig{
		Name:    "w",
		Threads: 2,
		Clock:   clock,
		Trace:   rec,
		Retry:   retry.Policy{Attempts: 2, Base: time.Millisecond},
		Dial:    func(string) CoordinatorClient { return &LocalCoordinatorClient{C: coord} },
	})
	coord = NewCoordinator(Config{
		Peers:          []WorkerClient{&LocalWorkerClient{WorkerName: "w", W: w}},
		Shards:         2,
		LeaseTTL:       200 * time.Millisecond,
		HeartbeatEvery: 50 * time.Millisecond,
		Clock:          clock,
		Retry:          retry.Policy{Attempts: 2, Base: time.Millisecond},
	})

	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				clock.Advance(2 * time.Millisecond)
				time.Sleep(200 * time.Microsecond)
			}
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	res, err := coord.Run(ctx, "tags", cons, RunOptions{InitialTree: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	evs, err := tracereport.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}

	taskEvents, tagged := 0, 0
	seenShards := map[int64]bool{}
	for _, e := range evs {
		if e.Ev != obs.EvTaskStart && e.Ev != obs.EvTaskEnd {
			continue
		}
		taskEvents++
		if e.GetStr("trace") == res.TraceID && e.GetStr("job") == "tags" &&
			e.GetStr("node") == "w" && e.Has("shard") && e.Has("epoch") {
			tagged++
			seenShards[e.Get("shard")] = true
		}
	}
	if taskEvents == 0 {
		t.Fatal("shard run emitted no engine task events")
	}
	if tagged != taskEvents {
		t.Fatalf("%d of %d task events missing fleet context (trace=%s)",
			taskEvents-tagged, taskEvents, res.TraceID)
	}
	if len(seenShards) != 2 {
		t.Fatalf("task events cover shards %v, want both shards", seenShards)
	}
}

// TestFleetAtZeroIsAFleetOfOne: a coordinator without peers runs every shard
// on its own worker, "local", through the path every shard takes. The local
// shards' checkpoint-carrying heartbeats are accepted (their progress shows
// in Status, under peer local, while the peer list stays empty), the
// coordinator's trace pairs each dispatch with its shard-begin and leaves no
// orphan, and the stand equals the serial one, each tree once. The shards
// are braked as in TestFleetHeartbeatBlackhole so that they outlast many
// heartbeats.
func TestFleetAtZeroIsAFleetOfOne(t *testing.T) {
	cons := canonicalize(t, randomScenario(rand.New(rand.NewSource(308)), 18, 4, 6, 0.45))
	ref := serialRef(t, cons)
	brake, err := gentrius.ParseFaults("treestream.every=200;treestream.delay=1ms")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	rec := obs.NewRecorder(&buf, nil)
	metrics := NewMetrics(obs.NewRegistry())
	f := newFleet(t, 0, Config{
		Shards:         2,
		Threads:        2,
		LeaseTTL:       time.Second,
		HeartbeatEvery: 20 * time.Millisecond,
		Metrics:        metrics,
		Trace:          rec,
		Fault:          brake,
	}, nil)
	type runOut struct {
		res *Result
		err error
	}
	done := make(chan runOut, 1)
	go func() {
		res, err := f.coord.Run(context.Background(), "zero", cons, RunOptions{CollectTrees: true, InitialTree: -1})
		done <- runOut{res, err}
	}()

	waitFor(t, "a local shard's accepted progress in Status", func() bool {
		st := f.coord.Status()
		if len(st.Peers) != 0 {
			t.Fatalf("Status lists peers %+v, want none", st.Peers)
		}
		for _, j := range st.Jobs {
			for _, s := range j.Shards {
				if s.State == "leased" && s.Peer == "local" && s.EstimatorFraction < 1 {
					return true
				}
			}
		}
		return false
	})
	out := <-done
	if out.err != nil {
		t.Fatal(out.err)
	}
	res := out.res
	assertMatchesSerial(t, res, ref)
	if res.LocalShards != 2+res.LeaseExpiries {
		t.Fatalf("%d local shards with %d lease expiries, want every epoch local", res.LocalShards, res.LeaseExpiries)
	}
	if v := metrics.Fenced.Value(); v != 0 {
		t.Fatalf("%d heartbeats or results fenced, want none", v)
	}

	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	evs, err := tracereport.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := tracereport.MergeFleet([]tracereport.NodeTrace{{Name: "coord", Events: evs}}, "ms")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Orphans) != 0 {
		t.Fatalf("orphans in the merged trace: %v", rep.Orphans)
	}
	if len(rep.Shards) != 2 {
		t.Fatalf("merged trace has %d shards, want 2", len(rep.Shards))
	}
	for _, sh := range rep.Shards {
		for _, e := range sh.Epochs {
			if !e.HasBegin || e.BeginTS < e.DispatchTS {
				t.Fatalf("shard %d epoch %d: dispatch at %d not paired with a later shard-begin (%v at %d)",
					e.Shard, e.Epoch, e.DispatchTS, e.HasBegin, e.BeginTS)
			}
			if e.HBSends == 0 || e.HBRecvs != e.HBSends || e.Checkpoints == 0 {
				t.Fatalf("shard %d epoch %d: %d of %d heartbeats accepted, %d checkpoints", e.Shard, e.Epoch,
					e.HBRecvs, e.HBSends, e.Checkpoints)
			}
			if e.Holder != "local" {
				t.Fatalf("shard %d epoch %d held by %q, want the coordinator's own worker, local", e.Shard, e.Epoch, e.Holder)
			}
		}
		if last := sh.Epochs[len(sh.Epochs)-1]; last.Outcome != "merged" || last.WorkerOutcome != "done" {
			t.Fatalf("shard %d ends %s/%s, want merged/done", sh.Shard, last.Outcome, last.WorkerOutcome)
		}
	}
	if len(rep.Stragglers) != 1 || rep.Stragglers[0].Node != "local" {
		t.Fatalf("straggler rows %+v, want one, local", rep.Stragglers)
	}
}
