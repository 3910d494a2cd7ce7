package parallel

import (
	"runtime"
	"testing"

	"gentrius/internal/gen"
	"gentrius/internal/search"
	"gentrius/internal/terrace"
	"gentrius/internal/tree"
)

// mallocs returns the number of heap allocations f makes (all goroutines:
// the pool's workers allocate too), minimum over a few runs since steals and
// with them task allocations vary from run to run.
func mallocs(f func()) uint64 {
	best := ^uint64(0)
	var before, after runtime.MemStats
	for i := 0; i < 5; i++ {
		runtime.GC()
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		if n := after.Mallocs - before.Mallocs; n < best {
			best = n
		}
	}
	return best
}

// referenceDataset is the dataset cmd/benchreport measures SerialEngine and
// ParallelGoroutines on: the first simulated instance that exhausts in at
// least 100 000 steps (index 24: 202 taxa, 10 loci, 54 675 stand trees).
func referenceDataset() []*tree.Tree {
	return gen.Generate(gen.Default(gen.RegimeSimulated), 24).Constraints
}

// TestPoolAllocationsNearSerial pins ROADMAP item 2's "allocs <= serial +
// O(T)" on a full enumeration: on top of the serial engine's allocations,
// every worker of the pool adds less than half of what one more terrace.New
// would — each added a whole one, and its replay, when it built its own
// Terrace from the constraints (137 k allocations at four threads against
// the serial 27 k then). Task
// submission is switched off: the engine a stolen task starts allocates its
// own frame buffers, and how many are stolen varies from run to run.
//
// The issue asked for "at most twice the serial count", written when that
// count was 27 k. The linear initialiser brought it under 1 k, most of it
// terrace.New itself; four threads still come in just under twice that (956
// against 489), but with nothing to spare, so the bound here is the one
// that scales with the thread count.
func TestPoolAllocationsNearSerial(t *testing.T) {
	cons := referenceDataset()
	build := mallocs(func() {
		if _, err := terrace.New(cons, search.ChooseInitialTree(cons)); err != nil {
			t.Fatal(err)
		}
	})
	serial := mallocs(func() {
		if _, err := search.Run(cons, search.Options{InitialTree: -1}); err != nil {
			t.Fatal(err)
		}
	})
	for _, threads := range []int{4, 8} {
		pool := mallocs(func() {
			if _, err := Run(cons, Options{Threads: threads, InitialTree: -1,
				Policy: search.Policy{MinRemaining: 1 << 30}}); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("terrace.New %d mallocs, serial run %d, pool at %d threads %d", build, serial, threads, pool)
		if pool > serial+uint64(threads)*build/2 {
			t.Errorf("pool at %d threads makes %d allocations, serial run %d, terrace.New %d",
				threads, pool, serial, build)
		}
	}
}

// TestTerraceBuiltOncePerRun: however many workers a fresh run has, the
// constraints are turned into a Terrace once; a further worker costs a clone,
// a fraction of the allocations terrace.New makes.
func TestTerraceBuiltOncePerRun(t *testing.T) {
	cons := referenceDataset()
	build := mallocs(func() {
		if _, err := terrace.New(cons, search.ChooseInitialTree(cons)); err != nil {
			t.Fatal(err)
		}
	})
	// A state limit of one keeps the enumeration out of the picture.
	run := func(threads int) uint64 {
		return mallocs(func() {
			if _, err := Run(cons, Options{Threads: threads, InitialTree: -1,
				Limits: search.Limits{MaxStates: 1, MaxTrees: -1, MaxTime: -1}}); err != nil {
				t.Fatal(err)
			}
		})
	}
	one, nine := run(1), run(9)
	perWorker := (nine - one) / 8
	t.Logf("terrace.New %d mallocs; run at 1 thread %d, at 9 threads %d: %d per further worker", build, one, nine, perWorker)
	if perWorker > build/2 {
		t.Fatalf("a further worker costs %d allocations, terrace.New %d: workers are not cloning", perWorker, build)
	}
}
