package dist

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"gentrius/internal/faultinject"
	"gentrius/internal/gen"
	"gentrius/internal/obs"
	"gentrius/internal/retry"
	"gentrius/internal/search"
	"gentrius/internal/tracereport"
)

var unlimited = search.Limits{MaxTrees: -1, MaxStates: -1, MaxTime: -1}

// loopbackFleet is a coordinator with two in-process workers on the wall
// clock, joined by the in-memory transports; with no workers it is a fleet of
// one, its own worker "local".
func loopbackFleet(t *testing.T, workers int, trace *obs.Recorder) *Coordinator {
	t.Helper()
	var coord *Coordinator
	var peers []WorkerClient
	for i := range workers {
		name := fmt.Sprintf("w%d", i)
		w := NewWorker(WorkerConfig{Name: name,
			Dial: func(string) CoordinatorClient { return &LocalCoordinatorClient{C: coord} }})
		t.Cleanup(w.Shutdown)
		peers = append(peers, &LocalWorkerClient{WorkerName: name, W: w})
	}
	coord = NewCoordinator(Config{Peers: peers, Shards: 4, Trace: trace})
	return coord
}

// TestFleetRefusesTheOthersFields: the fleet refuses every field of
// search.Options it does not honour, each on its own, before it sets up the
// run or takes the job id — so the same id then runs to exhaustion — and a
// refused run still releases its trigger's requesters.
func TestFleetRefusesTheOthersFields(t *testing.T) {
	cons := canonicalize(t, randomScenario(rand.New(rand.NewSource(72)), 11, 3, 5, 0.6))
	ref := serialRef(t, cons)
	coord := loopbackFleet(t, 0, nil)
	ck := func(p search.CheckpointPolicy) search.Options { return search.Options{Checkpoint: p} }
	for _, c := range []struct {
		what string
		opt  search.Options
	}{
		{"two threads", search.Options{Threads: 2}},
		{"a Heuristic", search.Options{Heuristic: search.OrderMinBranchesTieDegree}},
		{"DisableDynamicOrder", search.Options{DisableDynamicOrder: true}},
		{"a ShuffleSeed", search.Options{ShuffleSeed: 7}},
		{"CheckEvery", search.Options{CheckEvery: 64}},
		{"a Ctx", search.Options{Ctx: context.Background()}},
		{"a checkpoint Interval", ck(search.CheckpointPolicy{Interval: time.Second})},
		{"checkpoint OnStop", ck(search.CheckpointPolicy{OnStop: true})},
		{"a checkpoint to Resume", ck(search.CheckpointPolicy{Resume: &search.Checkpoint{}})},
		{"a checkpoint Sink", ck(search.CheckpointPolicy{Sink: func(*search.Checkpoint) {}})},
		{"a checkpoint Trigger", ck(search.CheckpointPolicy{Trigger: search.NewCheckpointTrigger()})},
		{"a Policy", search.Options{Policy: search.Policy{QueueCap: 2}}},
		{"Obs", search.Options{Obs: &obs.Sink{}}},
		{"Fault", search.Options{Fault: faultinject.New(1)}},
	} {
		c.opt.InitialTree = -1
		if _, err := coord.Run(context.Background(), "refused", cons, c.opt); err == nil {
			t.Fatalf("%s: not refused", c.what)
		}
		trig := search.NewCheckpointTrigger()
		c.opt.Checkpoint.Trigger = trig
		if _, err := coord.Run(context.Background(), "refused", cons, c.opt); err == nil {
			t.Fatalf("%s, with a trigger: not refused", c.what)
		}
		if _, err := trig.Request(context.Background()); !errors.Is(err, search.ErrRunEnded) {
			t.Fatalf("%s: a request after the refusal got %v, want ErrRunEnded", c.what, err)
		}
		res, err := coord.Run(context.Background(), "refused", cons,
			search.Options{InitialTree: -1, Limits: unlimited, CollectTrees: true})
		if err != nil {
			t.Fatalf("%s: the job id after the refusal: %v", c.what, err)
		}
		if res.Stop != search.StopExhausted {
			t.Fatalf("%s: the job id after the refusal stopped %v", c.what, res.Stop)
		}
		assertMatchesSerial(t, res, ref)
	}
}

// TestFleetOneOptionsOracle: one search.Options value drives search.Run, a
// two-worker fleet and the fleet of one to the same stand, counters, stop,
// initial tree and prefix, and each fleet's Counters are its Prefix plus the
// shards it merged (read from the coordinator's shard-done events).
func TestFleetOneOptionsOracle(t *testing.T) {
	const budget = 20_000
	stride := 1
	if raceEnabled || testing.Short() {
		stride = 4
	}
	var buf bytes.Buffer
	rec := obs.NewRecorder(&buf, nil)
	fleets := []struct {
		name, id string
		coord    *Coordinator
	}{{"two workers", "two", loopbackFleet(t, 2, rec)}, {"a fleet of one", "one", loopbackFleet(t, 0, rec)}}
	opt := search.Options{InitialTree: -1, CollectTrees: true, Limits: unlimited}
	stands, prefixed := 0, 0
	for _, regime := range []gen.Regime{gen.RegimeSimulated, gen.RegimeEmpirical} {
		for idx := 0; idx < 24; idx += stride {
			ds := gen.Generate(gen.Default(regime), idx)
			cons := canonicalize(t, ds.Constraints)
			probe, err := search.Run(cons, search.Options{InitialTree: -1,
				Limits: search.Limits{MaxTrees: budget + 1, MaxStates: budget + 1, MaxTime: -1}})
			if err != nil {
				t.Fatalf("%s: %v", ds.Name, err)
			}
			if probe.Stop != search.StopExhausted {
				continue // too large to run three times over
			}
			ref, err := search.Run(cons, opt)
			if err != nil {
				t.Fatalf("%s: %v", ds.Name, err)
			}
			stands++
			if ref.PrefixLen > 0 {
				prefixed++
			}
			for _, f := range fleets {
				what, job := fmt.Sprintf("%s, %s", ds.Name, f.name), ds.Name+"-"+f.id
				res, err := f.coord.Run(context.Background(), job, cons, opt)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				r := res.Result
				if r.Stop != ref.Stop || r.Counters != ref.Counters || r.InitialIndex != ref.InitialIndex ||
					r.PrefixLen != ref.PrefixLen || r.Prefix != ref.Prefix {
					t.Fatalf("%s: %v %+v, initial tree %d, prefix %d %+v; serial %v %+v, %d, %d %+v",
						what, r.Stop, r.Counters, r.InitialIndex, r.PrefixLen, r.Prefix,
						ref.Stop, ref.Counters, ref.InitialIndex, ref.PrefixLen, ref.Prefix)
				}
				if !slices.Equal(sortedCopy(r.Trees), sortedCopy(ref.Trees)) {
					t.Fatalf("%s: %d trees, not the serial stand of %d", what, len(r.Trees), len(ref.Trees))
				}
				if err := rec.Flush(); err != nil {
					t.Fatal(err)
				}
				evs, err := tracereport.ReadTrace(&buf)
				if err != nil {
					t.Fatal(err)
				}
				buf.Reset()
				merged := r.Prefix
				for _, e := range evs {
					if e.Ev == obs.EvShardDone && e.GetStr("job") == job {
						merged.StandTrees += e.Get("trees")
						merged.IntermediateStates += e.Get("states")
					}
				}
				if merged.StandTrees != r.StandTrees || merged.IntermediateStates != r.IntermediateStates {
					t.Fatalf("%s: prefix %+v and the merged shards make %d trees and %d states, Counters %+v",
						what, r.Prefix, merged.StandTrees, merged.IntermediateStates, r.Counters)
				}
			}
		}
	}
	if stands < 4 || prefixed == 0 {
		t.Fatalf("only %d stands small enough, %d with a prefix", stands, prefixed)
	}
	t.Logf("%d stands, %d with a prefix", stands, prefixed)
}

// TestFleetZeroLimitsAreThePapersDefaults: a fleet job run with zero Limits
// stops at the paper's tree limit, as every other driver does: one merged
// shard that counted search.DefaultMaxTrees trees ends the job with
// StopTreeLimit, the other shard still leased.
func TestFleetZeroLimitsAreThePapersDefaults(t *testing.T) {
	cons := canonicalize(t, randomScenario(rand.New(rand.NewSource(101)), 15, 3, 6, 0.6))
	peerA, peerB := newScriptedPeer("a"), newScriptedPeer("b")
	clock := NewVirtualClock(time.Unix(0, 0))
	coord := NewCoordinator(Config{Peers: []WorkerClient{peerA, peerB}, Shards: 2,
		Clock: clock, Retry: retry.Policy{Attempts: 1}})
	done := make(chan *Result, 1)
	go func() {
		res, err := coord.Run(context.Background(), "defaults", cons, search.Options{InitialTree: -1})
		if err != nil {
			t.Error(err)
		}
		done <- res
	}()
	d := awaitDispatch(t, clock, time.Millisecond, peerA, peerB)
	awaitDispatch(t, clock, time.Millisecond, peerA, peerB)
	if resp := coord.HandleResult(&ShardResult{Proto: Proto, JobID: d.JobID, Shard: d.Shard, Epoch: d.Epoch,
		Counters: search.Counters{StandTrees: search.DefaultMaxTrees}}); resp.Fenced {
		t.Fatal("the shard's result fenced")
	}
	select {
	case res := <-done:
		if res == nil || res.Stop != search.StopTreeLimit {
			t.Fatalf("result %+v, want StopTreeLimit", res)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a job of zero limits runs on past the paper's tree limit")
	}
}
