package search

import (
	"math/rand"
	"slices"
	"testing"
)

// FuzzRenderingLeafByLeaf checks the rendering engine against the machine
// that inserts every leaf: on a small random stand built as randomScenario
// builds one, under one of the three dynamic heuristics and a CheckEvery from
// one step to a thousand, a run that collects the trees finds the leaf-by-leaf
// machine's, byte for byte and in order, with its counters, or the first of
// them where a tree limit stops it; and it stops where, when and why the
// counting run does, having booked, looked ahead, taken whole and inserted
// what that run did.
func FuzzRenderingLeafByLeaf(f *testing.F) {
	for _, s := range []struct {
		seed                     int64
		n, m, p, h, every, limit uint8
	}{
		{1, 3, 1, 10, 0, 0, 0}, {29, 5, 0, 20, 1, 3, 1}, {7, 4, 2, 0, 2, 4, 2},
		{104, 2, 1, 30, 0, 2, 3}, {5, 0, 0, 40, 1, 1, 0}, {61, 5, 2, 15, 2, 3, 1},
	} {
		f.Add(s.seed, s.n, s.m, s.p, s.h, s.every, s.limit)
	}
	f.Fuzz(func(t *testing.T, seed int64, n, m, p, h, every, limit uint8) {
		rng := rand.New(rand.NewSource(seed))
		cons := randomScenario(rng, 7+int(n%6), 2+int(m%3), 4, 0.4+float64(p%41)/100)
		heur := OrderHeuristic(h % 3)
		lim := Limits{MaxTrees: -1, MaxStates: 20_000, MaxTime: -1}
		if limit%4 != 0 {
			lim.MaxTrees = 1 + int64(seed&1023) // stopped within the stand as often as not
		}
		opt := Options{InitialTree: -1, Heuristic: heur, CheckEvery: []int{1, 2, 7, 64, 1024}[every%5], Limits: lim}
		count, err := Run(cons, opt)
		if err != nil {
			t.Fatal(err)
		}
		opt.CollectTrees = true
		got, err := Run(cons, opt)
		if err != nil {
			t.Fatal(err)
		}
		if got.Counters != count.Counters || got.Steps != count.Steps || got.Stop != count.Stop {
			t.Fatalf("rendering %+v in %d steps, stopped for %v; counting %+v in %d, for %v",
				got.Counters, got.Steps, got.Stop, count.Counters, count.Steps, count.Stop)
		}
		if !sameWork(got.Work, count.Work) {
			t.Fatalf("rendering work %+v, counting work %+v", got.Work, count.Work)
		}
		tr, err := newTerrace(cons, got.InitialIndex)
		if err != nil {
			t.Fatal(err)
		}
		want := refEnumerate(tr, heur)
		if got.Stop == StopExhausted {
			steps := want.steps + 1
			if len(tr.MissingTaxa()) == 0 {
				steps = 1 // the initial tree is the stand's one tree: one step of the runner's
			}
			if got.Counters != want.Counters || got.Steps != steps {
				t.Fatalf("%+v in %d steps, leaf by leaf %+v in %d", got.Counters, got.Steps, want.Counters, steps)
			}
			if !slices.Equal(got.Trees, want.trees) {
				t.Fatalf("the %d trees differ from the leaf-by-leaf machine's, or their order does", len(got.Trees))
			}
		} else if !slices.Equal(got.Trees, want.trees[:min(len(got.Trees), len(want.trees))]) {
			t.Fatalf("the %d trees of a stopped run are not the leaf-by-leaf machine's first ones", len(got.Trees))
		}
	})
}
