package simsched

import (
	"math/rand"
	"runtime"
	"testing"

	"gentrius/internal/gen"
	"gentrius/internal/parallel"
	"gentrius/internal/search"
	"gentrius/internal/terrace"
)

// TestDriversAgree: the goroutine pool and the simulator drive one scheme
// (search.Start, search.Policy, search.FrontierTask), so at one worker —
// where the pool is deterministic too — they must do exactly the same work
// and hand off exactly the same tasks, fresh and when both resume the same
// mid-run frontier checkpoint. The speedup figures are simulator outputs;
// this is what makes them claims about the real engine.
//
// One divergence is known and kept: the pool flushes its counter batch at
// the end of every task (a worker about to block in the steal wait must not
// sit on unpublished counts), the simulator only when a batch fills and at
// the very end. So the pool flushes at least as often, and under a stopping
// rule the two notice the limit at different moments. Reconciling them
// changes the simulator's golden traces; whoever does it should do it
// knowingly — this assertion is the tripwire.
func TestDriversAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(1313))
	noLimits := Limits{MaxTrees: -1, MaxStates: -1}
	compared, resumed, stolen := 0, 0, int64(0)
	for scen := 0; compared < 6 && scen < 300; scen++ {
		cons := randomScenario(rng, 14, 3, 4, 0.5)
		ref, err := Run(cons, Options{Workers: 1, InitialTree: -1, Limits: noLimits})
		if err != nil {
			t.Fatal(err)
		}
		if ref.IntermediateStates < 100 {
			continue // too small to interrupt half-way
		}
		compared++
		// The same run cut half-way: a frontier with queued and in-flight work.
		half, err := Run(cons, Options{Workers: 1, InitialTree: -1, CheckpointOnStop: true,
			Limits: Limits{MaxTrees: -1, MaxStates: ref.IntermediateStates / 2},
			Policy: search.Policy{TreeBatch: 1, StateBatch: 1, DeadEndBatch: 1}})
		if err != nil {
			t.Fatal(err)
		}
		for _, cp := range []*search.Checkpoint{nil, half.Checkpoint} {
			what := "fresh"
			if cp != nil {
				what = "resumed"
				resumed++
			} else if half.Checkpoint == nil {
				t.Fatalf("scenario %d: state limit %d did not interrupt the run", scen, ref.IntermediateStates/2)
			}
			sim, err := Run(cons, Options{Workers: 1, InitialTree: -1, Limits: noLimits, Resume: cp})
			if err != nil {
				t.Fatal(err)
			}
			pool, err := parallel.Run(cons, parallel.Options{Threads: 1, InitialTree: -1,
				Limits:     search.Limits{MaxTrees: -1, MaxStates: -1, MaxTime: -1},
				Checkpoint: search.CheckpointPolicy{Resume: cp}})
			if err != nil {
				t.Fatal(err)
			}
			if sim.Counters != ref.Counters || pool.Counters != ref.Counters {
				t.Fatalf("scenario %d %s: simulator %+v, pool %+v, uninterrupted %+v",
					scen, what, sim.Counters, pool.Counters, ref.Counters)
			}
			if sim.TasksStolen != pool.TasksStolen {
				t.Fatalf("scenario %d %s: simulator stole %d tasks, pool %d",
					scen, what, sim.TasksStolen, pool.TasksStolen)
			}
			if pool.Flushes < sim.Flushes {
				t.Fatalf("scenario %d %s: pool flushed %d times, simulator %d — the task-end flush is gone?",
					scen, what, pool.Flushes, sim.Flushes)
			}
			stolen += sim.TasksStolen
		}
	}
	if compared < 6 || resumed < 6 || stolen == 0 {
		t.Fatalf("compared %d stands (%d resumed, %d steals): not enough to mean anything", compared, resumed, stolen)
	}
}

// TestTerraceBuiltOncePerRun: the simulator's workers, like the pool's, are
// clones of the one Terrace search.Start built, so a further virtual worker
// costs a fraction of the allocations terrace.New makes — it cost a whole
// terrace.New when every worker rebuilt its state from the constraints. The
// simulator is single-threaded, so the counts repeat exactly.
func TestTerraceBuiltOncePerRun(t *testing.T) {
	cons := gen.Generate(gen.Default(gen.RegimeSimulated), 24).Constraints
	mallocs := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	build := mallocs(func() {
		if _, err := terrace.New(cons, search.ChooseInitialTree(cons)); err != nil {
			t.Fatal(err)
		}
	})
	// A tick limit of one keeps the enumeration out of the picture.
	run := func(workers int) uint64 {
		return mallocs(func() {
			if _, err := Run(cons, Options{Workers: workers, InitialTree: -1,
				Limits: Limits{MaxTrees: -1, MaxStates: -1, MaxTicks: 1}}); err != nil {
				t.Fatal(err)
			}
		})
	}
	one, nine := run(1), run(9)
	perWorker := (nine - one) / 8
	t.Logf("terrace.New %d mallocs; run with 1 worker %d, with 9 workers %d: %d per further worker", build, one, nine, perWorker)
	if perWorker > build/2 {
		t.Fatalf("a further worker costs %d allocations, terrace.New %d: workers are not cloning", perWorker, build)
	}
}
