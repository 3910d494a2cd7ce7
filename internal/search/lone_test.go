package search_test

import (
	"sync/atomic"
	"testing"

	"gentrius/internal/gen"
	"gentrius/internal/parallel"
	"gentrius/internal/search"
)

// TestLoneTreeRenderedOnlyForASink: a stand whose prefix finds its one tree
// renders it only for a run that hands trees on — at one thread and at two —
// and a counting run renders nothing; after Release the set-up renders none.
func TestLoneTreeRenderedOnlyForASink(t *testing.T) {
	cons := gen.Generate(gen.Default(gen.RegimeSimulated), 0).Constraints
	run := func(threads int, opt search.Options) *search.Result {
		t.Helper()
		opt.InitialTree, opt.Threads = -1, threads
		run := search.Run
		if threads > 1 {
			run = parallel.Run
		}
		res, err := run(cons, opt)
		if err != nil {
			t.Fatal(err)
		}
		if res.StandTrees != 1 || res.PrefixLen == 0 {
			t.Fatalf("%d threads: %d trees after a prefix of %d: not a stand whose prefix finds its one tree",
				threads, res.StandTrees, res.PrefixLen)
		}
		return res
	}
	var renders atomic.Int64
	search.CountStandTreeRenders(t, &renders)
	for _, threads := range []int{1, 2} {
		before := renders.Load()
		run(threads, search.Options{})
		if n := renders.Load() - before; n != 0 {
			t.Fatalf("%d threads: a counting run rendered the tree %d times", threads, n)
		}
		var got []string
		res := run(threads, search.Options{CollectTrees: true, OnTree: func(nw string) { got = append(got, nw) }})
		if n := renders.Load() - before; n != 1 || len(got) != 1 || len(res.Trees) != 1 || got[0] != res.Trees[0] {
			t.Fatalf("%d threads: a run with a sink rendered the tree %d times, handed on %q, collected %q", threads, n, got, res.Trees)
		}
	}
	su, err := (&search.Options{InitialTree: -1}).Start(cons)
	if err != nil {
		t.Fatal(err)
	}
	if su.Tree() == "" {
		t.Fatal("the set-up renders no lone stand tree")
	}
	su.Release()
	if nw := su.Tree(); nw != "" {
		t.Fatalf("after Release the set-up renders %q", nw)
	}
}
