package parallel

import (
	"math/rand"
	"sort"
	"testing"

	"gentrius/internal/bitset"
	"gentrius/internal/obs"
	"gentrius/internal/search"
	"gentrius/internal/tree"
)

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

func sortedCopy(s []string) []string {
	c := append([]string(nil), s...)
	sort.Strings(c)
	return c
}

// TestParallelMatchesSerial is the paper's Sec. IV verification: serial and
// parallel yield the exact same number of stand trees, intermediate states
// and dead ends, and identical stands.
func TestParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	checked := 0
	for scen := 0; scen < 25; scen++ {
		n := 9 + rng.Intn(6)
		m := 2 + rng.Intn(3)
		cons := randomScenario(rng, n, m, 4, 0.55)
		serial, err := search.Run(cons, search.Options{InitialTree: -1, CollectTrees: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, threads := range []int{1, 2, 4, 7, 16} {
			par, err := Run(cons, Options{Threads: threads, InitialTree: -1, CollectTrees: true})
			if err != nil {
				t.Fatalf("scen %d threads %d: %v", scen, threads, err)
			}
			if par.Counters != serial.Counters {
				t.Fatalf("scen %d threads %d: counters %+v, serial %+v",
					scen, threads, par.Counters, serial.Counters)
			}
			ps, ss := sortedCopy(par.Trees), sortedCopy(serial.Trees)
			if len(ps) != len(ss) {
				t.Fatalf("scen %d threads %d: %d trees vs serial %d",
					scen, threads, len(ps), len(ss))
			}
			for i := range ps {
				if ps[i] != ss[i] {
					t.Fatalf("scen %d threads %d: stands differ", scen, threads)
				}
			}
		}
		if serial.StandTrees > 4 {
			checked++
		}
	}
	if checked < 5 {
		t.Fatalf("only %d scenarios had non-trivial stands", checked)
	}
}

// TestWorkStealingHappens verifies that on an imbalanced search tasks are
// actually created and stolen.
func TestWorkStealingHappens(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	stole := false
	for scen := 0; scen < 40 && !stole; scen++ {
		cons := randomScenario(rng, 14, 2, 4, 0.45)
		serial, err := search.Run(cons, search.Options{InitialTree: -1})
		if err != nil {
			t.Fatal(err)
		}
		if serial.StandTrees < 50 {
			continue
		}
		par, err := Run(cons, Options{Threads: 4, InitialTree: -1})
		if err != nil {
			t.Fatal(err)
		}
		if par.Counters != serial.Counters {
			t.Fatalf("counters diverged: %+v vs %+v", par.Counters, serial.Counters)
		}
		if par.TasksStolen > 0 {
			stole = true
		}
	}
	if !stole {
		t.Fatal("no scenario exercised work stealing")
	}
}

// TestStoppingRuleParallel verifies rule 1 fires in parallel mode and may
// overshoot only modestly (bounded by worker count x batch).
func TestStoppingRuleParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	for scen := 0; ; scen++ {
		if scen > 100 {
			t.Fatal("no suitable scenario found")
		}
		cons := randomScenario(rng, 14, 2, 4, 0.45)
		serial, err := search.Run(cons, search.Options{InitialTree: -1})
		if err != nil {
			t.Fatal(err)
		}
		if serial.StandTrees < 500 {
			continue
		}
		limit := int64(100)
		par, err := Run(cons, Options{
			Threads: 4, InitialTree: -1,
			Limits: search.Limits{MaxTrees: limit},
			Policy: search.Policy{TreeBatch: 8, StateBatch: 64, DeadEndBatch: 8},
		})
		if err != nil {
			t.Fatal(err)
		}
		if par.Stop != search.StopTreeLimit {
			t.Fatalf("stop = %v, want tree-limit", par.Stop)
		}
		if par.StandTrees < limit {
			t.Fatalf("stopped below the limit: %d < %d", par.StandTrees, limit)
		}
		// Overshoot bounded by roughly threads x batch plus in-flight steps.
		if par.StandTrees > limit+4*8+64 {
			t.Fatalf("overshoot too large: %d trees for limit %d", par.StandTrees, limit)
		}
		return
	}
}

// TestPrefixTerminalCases: stands of size one (prefix completes the tree)
// and empty stands work through the parallel path.
func TestPrefixTerminalCases(t *testing.T) {
	taxa := tree.MustTaxa([]string{"A", "B", "C", "D", "E"})
	// Constraints pinning a unique topology: the full tree itself.
	full := tree.MustParse("((A,B),(C,(D,E)));", taxa)
	par, err := Run([]*tree.Tree{full}, Options{Threads: 4, InitialTree: 0, CollectTrees: true})
	if err != nil {
		t.Fatal(err)
	}
	if par.StandTrees != 1 || len(par.Trees) != 1 {
		t.Fatalf("stand = %d trees", par.StandTrees)
	}
	// Incompatible pair: empty stand.
	c2 := tree.MustParse("((A,C),(B,(D,E)));", taxa)
	c1 := tree.MustParse("((A,B),(C,D));", taxa)
	par2, err := Run([]*tree.Tree{c1, c2}, Options{Threads: 3, InitialTree: -1})
	if err != nil {
		t.Fatal(err)
	}
	if par2.StandTrees != 0 {
		t.Fatalf("incompatible pair gave %d trees", par2.StandTrees)
	}
}

func TestPartitionBranches(t *testing.T) {
	br := []int32{0, 1, 2, 3, 4}
	parts := search.PartitionBranches(br, 4)
	sizes := []int{2, 1, 1, 1} // the paper's example: 5 branches, 4 threads
	for w, want := range sizes {
		if len(parts[w]) != want {
			t.Fatalf("partition sizes %v, want %v", parts, sizes)
		}
	}
	parts = search.PartitionBranches(br[:2], 3)
	if len(parts[0]) != 1 || len(parts[1]) != 1 || parts[2] != nil {
		t.Fatalf("2 branches over 3 workers: %v", parts)
	}
}

// testPool is a pool with no run behind it: the scheduler's queue of the
// given capacity and the termination barrier of the given width.
func testPool(cap, workers int) *pool {
	p := &pool{sched: sched{policy: search.Policy{QueueCap: cap}, m: (*obs.Sink)(nil).SchedMetrics()}, workers: workers}
	p.cond.L, p.ctl.L = &p.mu, &p.mu
	return p
}

// offer has a worker offer the last branch of a frame of taxon 3.
func offer(p *pool) bool {
	w := &worker{s: &p.sched, cur: &task{}}
	return w.Offer(nil, &search.Frame{Taxon: 3, Branches: []int32{4, 5}}, 1) == 1
}

// TestQueueSubmitAndCap: the queue takes offers up to its capacity, in FIFO
// order, and none after the stop; Full, which a worker reads before it
// builds an offer's path, says when it is at capacity.
func TestQueueSubmitAndCap(t *testing.T) {
	p := testPool(2, 3)
	full := (&worker{s: &p.sched}).Full
	if !offer(p) || full() || !offer(p) {
		t.Fatal("submissions under capacity rejected, or the queue full below it")
	}
	if !full() || offer(p) {
		t.Fatal("submission above capacity accepted, or the queue not full at it")
	}
	tk := p.steal(0)
	if tk == nil || tk.id != 1 || full() {
		t.Fatalf("steal = %+v (want FIFO task 1), full after it %v", tk, full())
	}
	if !offer(p) {
		t.Fatal("submission after drain rejected")
	}
	p.raise(search.StopCancelled)
	if offer(p) {
		t.Fatal("submission after the stop accepted")
	}
}

func TestQueueTerminationWhenAllIdle(t *testing.T) {
	p := testPool(4, 2)
	done := make(chan bool, 2)
	for i := 0; i < 2; i++ {
		go func() {
			done <- p.steal(i) != nil
		}()
	}
	for i := 0; i < 2; i++ {
		if ok := <-done; ok {
			t.Fatal("steal returned a task from an empty terminating pool")
		}
	}
}

func TestParallelHeuristicOption(t *testing.T) {
	rng := rand.New(rand.NewSource(515))
	cons := randomScenario(rng, 12, 2, 4, 0.5)
	base, err := Run(cons, Options{Threads: 3, InitialTree: -1})
	if err != nil {
		t.Fatal(err)
	}
	alt, err := Run(cons, Options{Threads: 3, InitialTree: -1, Heuristic: search.OrderMinBranchesTieDegree})
	if err != nil {
		t.Fatal(err)
	}
	if base.StandTrees != alt.StandTrees {
		t.Fatalf("heuristic changed stand size: %d vs %d", base.StandTrees, alt.StandTrees)
	}
}
