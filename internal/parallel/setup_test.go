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
	n, _ := allocated(f)
	return n
}

// allocated is mallocs with the bytes allocated beside the count.
func allocated(f func()) (count, bytes uint64) {
	count, bytes = ^uint64(0), ^uint64(0)
	for i := 0; i < 5; i++ {
		c, b := allocatedOnce(f)
		count, bytes = min(count, c), min(bytes, b)
	}
	return count, bytes
}

// allocatedOnce is one run of allocated.
func allocatedOnce(f func()) (count, bytes uint64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// referenceDataset is the dataset cmd/benchreport measures SerialEngine and
// ParallelGoroutines on: the first simulated instance that exhausts in at
// least 100 000 steps (index 24: 202 taxa, 10 loci, 54 675 stand trees).
func referenceDataset() []*tree.Tree {
	return gen.Generate(gen.Default(gen.RegimeSimulated), 24).Constraints
}

// TestPoolAllocationsNearSerial pins ROADMAP item 2's "allocs <= serial +
// O(T)" on full enumerations, in two regimes. A stand that ends before worker
// 0's first poll never gets a second worker: the pool allocates what the
// serial engine does plus fixed — its queue, its globals, its one goroutine,
// the tasks the shares are queued as — whatever Threads says, counting and
// with a block sink (which adds the channel, the free list and the collector).
// A stand that outlives the poll pays per worker. With submission switched
// off — the only steals are the shares', so the numbers repeat — every worker
// adds, on top of the serial engine's allocations, at most perWorker: its
// clone of the prototype, its engine, its search.Worker and its goroutine, 43
// to 56 on these stands (75 to 113 while each worker also replayed the prefix
// on its clone). With stealing a worker adds at most growthPerWorker more,
// whatever the number of steals: its one engine and its path scratch grow to
// the deepest task it meets, and the pool's free list holds a few tasks per
// worker. Each run is held to that bound, and on the last stand the runs go
// on until one has stolen more tasks than it allocated beyond the shares —
// a run's steals vary several-fold from run to run (57 to 466 at 4 threads),
// since a final frame is one step and the runs are that much shorter. Handing the stand to a block sink
// costs each worker at most blocksPerWorker on top — its block, its Newick
// writer's scratch, its share of the channel's buffers and of the collector,
// and what its engine grows by when the sink's pace hands it other shares than
// it got counting — on a stand of 2 835 trees as on one of 54 675.
func TestPoolAllocationsNearSerial(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop recycled tasks at random")
	}
	const fixed, perWorker, growthPerWorker, blocksPerWorker = 48, 80, 64, 32
	noSubmit := search.Policy{MinRemaining: 1 << 30}
	for i, cons := range smallStands() {
		for _, sink := range []func([]byte, int){nil, func([]byte, int) {}} {
			serial := mallocs(func() {
				if _, err := search.Run(cons, search.Options{InitialTree: -1, OnTrees: sink}); err != nil {
					t.Fatal(err)
				}
			})
			for _, threads := range []int{4, 8} {
				pool := mallocs(func() {
					if _, err := Run(cons, Options{Threads: threads, InitialTree: -1, OnTrees: sink}); err != nil {
						t.Fatal(err)
					}
				})
				if pool > serial+fixed {
					t.Errorf("small stand %d (block sink %v): pool at %d threads makes %d allocations, serial run %d",
						i, sink != nil, threads, pool, serial)
				}
			}
		}
	}
	stands := [][]*tree.Tree{
		gen.Generate(gen.Default(gen.RegimeSimulated), 12).Constraints, // 557 states, 2 835 stand trees
		referenceDataset(),
		gen.Generate(gen.Default(gen.RegimeSimulated), 59).Constraints, // 87 552 states, 334 125 stand trees
	}
	for i, cons := range stands {
		serial := mallocs(func() {
			if _, err := search.Run(cons, search.Options{InitialTree: -1}); err != nil {
				t.Fatal(err)
			}
		})
		for _, threads := range []int{4, 8} {
			shares := mallocs(func() {
				if _, err := Run(cons, Options{Threads: threads, InitialTree: -1, Policy: noSubmit}); err != nil {
					t.Fatal(err)
				}
			})
			// Every run is held to the bound, the one with the most steals
			// included. On the last stand at 4 threads the runs go on until one
			// has stolen more tasks than it made allocations beyond the
			// shares-only run's: had a steal cost even one, it could not have,
			// so the bound tells O(T) from O(steals) on the run's own steals.
			bound := shares + uint64(threads)*growthPerWorker
			proof, told := threads == 4 && i == len(stands)-1, false
			lo, hi, pool := int64(1<<62), int64(0), uint64(0)
			for run := 0; run < 5 || proof && !told && run < 40; run++ {
				var stolen int64
				n, _ := allocatedOnce(func() {
					res, err := Run(cons, Options{Threads: threads, InitialTree: -1})
					if err != nil {
						t.Fatal(err)
					}
					stolen = res.TasksStolen
				})
				if n > bound {
					t.Errorf("stand %d: pool at %d threads makes %d allocations with %d steals, %d stealing its shares only",
						i, threads, n, stolen, shares)
				}
				lo, hi, pool = min(lo, stolen), max(hi, stolen), max(pool, n)
				told = told || stolen > int64(n)-int64(shares)
			}
			t.Logf("stand %d: serial run %d mallocs, pool at %d threads %d stealing its shares only, at most %d with %d to %d steals",
				i, serial, threads, shares, pool, lo, hi)
			if proof && !told {
				t.Errorf("stand %d: no run at %d threads stole more tasks than it allocated beyond its shares: the bound does not tell O(T) from O(steals)",
					i, threads)
			}
			if threads == 4 && i < 2 {
				blocks := mallocs(func() {
					if _, err := Run(cons, Options{Threads: threads, InitialTree: -1, OnTrees: func([]byte, int) {},
						Policy: noSubmit}); err != nil {
						t.Fatal(err)
					}
				})
				if blocks > shares+uint64(threads)*blocksPerWorker {
					t.Errorf("stand %d: pool at %d threads, no submission, makes %d allocations with a block sink, %d counting",
						i, threads, blocks, shares)
				}
				t.Logf("stand %d: %d with a block sink", i, blocks)
			}
			if shares > serial+uint64(threads)*perWorker {
				t.Errorf("stand %d: pool at %d threads, no submission, makes %d allocations, serial run %d",
					i, threads, shares, serial)
			}
		}
	}
}

// TestTerraceBuiltOncePerRun: however many workers a fresh run has, the
// constraints are turned into a Terrace once. Worker 0 runs on that one; a
// further worker costs a clone and under 64 KB of its own (engine, search
// worker, task), and all of them together one clone more, the prototype
// worker 0 cuts from its own state when it starts them. A worker that rebuilt
// its state would allocate what terrace.New does beyond a clone on top: the
// LCA indexes and the initialiser's scratch, some 160 KB on this stand.
// Bytes, not allocations: terrace.New carves its storage from slabs, so it
// allocates a few times per constraint, fewer times than a worker does.
//
// A cold run — terrace's free list emptied — allocates New's bytes once, and
// a cold run at 9 threads nine clones more; every run releases its Terraces
// at the end, clones included, so a second run on the same stand builds them
// all in that storage: at 1 thread it allocates less than a tenth of New's
// bytes, and at 2 threads less than a tenth of a clone's more than at 1.
func TestTerraceBuiltOncePerRun(t *testing.T) {
	cons := referenceDataset()
	newTerrace := func() *terrace.Terrace {
		tr, err := terrace.New(cons, search.ChooseInitialTree(cons))
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	emptyTerraceStorage()
	var proto *terrace.Terrace
	_, build := allocated(func() { proto = newTerrace() })
	_, clone := allocated(func() { proto.Clone() })
	// A state limit the first batch anybody publishes exceeds: past worker 0's
	// first poll, where the others are started, and not much further.
	run := func(threads int) func() {
		return func() {
			res, err := Run(cons, Options{Threads: threads, InitialTree: -1,
				Limits: search.Limits{MaxStates: 1000, MaxTrees: -1, MaxTime: -1}})
			if err != nil || res.Stop != search.StopStateLimit {
				t.Fatalf("%+v, %v", res, err)
			}
		}
	}
	emptyTerraceStorage()
	_, cold := allocatedOnce(run(1))
	emptyTerraceStorage()
	_, nine := allocatedOnce(run(9))
	perWorker := (nine - cold) / 8
	// Every run from here on is warm (allocated keeps the least of five).
	_, one := allocated(run(1))
	_, two := allocated(run(2))
	t.Logf("terrace.New %d bytes, Clone %d; run at 1 thread %d cold, %d warm; at 9 threads %d cold: %d per further worker; at 2 threads %d warm",
		build, clone, cold, one, nine, perWorker, two)
	if cold < build || cold > build+build/4 {
		t.Fatalf("a cold run at 1 thread allocates %d bytes, terrace.New %d: worker 0 is not running on the one Terrace the set-up built", cold, build)
	}
	if want := clone + clone/8; perWorker < want || perWorker > want+64<<10 {
		t.Fatalf("a further worker allocates %d bytes, its clone and an eighth of the prototype's %d: workers are not cloning",
			perWorker, want)
	}
	// The race detector makes sync.Pool drop recycled tasks at random: a few
	// KB more, and the run is within a few hundred bytes of the bound.
	if raceEnabled {
		return
	}
	if one >= build/10 {
		t.Fatalf("a warm run at 1 thread allocates %d bytes, over a tenth of terrace.New's %d: the set-up did not build in the last run's storage", one, build)
	}
	if two >= one+clone/10 {
		t.Fatalf("a warm run at 2 threads allocates %d bytes, at 1 thread %d: a tenth of a clone's %d more or over, so the clones did not take the last run's storage",
			two, one, clone)
	}
}
