package search

import (
	"math/rand"
	"sort"
	"testing"
	"time"

	"gentrius/internal/bitset"
	"gentrius/internal/brute"
	"gentrius/internal/gen"
	"gentrius/internal/terrace"
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

// randomScenario builds a compatible constraint set from one true tree.
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

func equalStringSets(a, b []string) bool {
	a, b = sortedCopy(a), sortedCopy(b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	nonTrivial := 0
	for scen := 0; scen < 60; scen++ {
		n := 6 + rng.Intn(3) // 6..8 taxa
		m := 2 + rng.Intn(3)
		cons := randomScenario(rng, n, m, 4, 0.65)
		taxa := cons[0].Taxa()
		want, err := brute.EnumerateStand(taxa, cons)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(cons, Options{InitialTree: -1, CollectTrees: true})
		if err != nil {
			t.Fatalf("scen %d: %v", scen, err)
		}
		if res.Stop != StopExhausted {
			t.Fatalf("scen %d: unexpected stop %v", scen, res.Stop)
		}
		if int(res.StandTrees) != len(want) {
			t.Fatalf("scen %d: Gentrius %d trees, brute force %d (constraints: %v)",
				scen, res.StandTrees, len(want), newicks(cons))
		}
		if !equalStringSets(res.Trees, want) {
			t.Fatalf("scen %d: tree sets differ", scen)
		}
		if len(want) > 1 {
			nonTrivial++
		}
	}
	if nonTrivial < 10 {
		t.Fatalf("only %d non-trivial scenarios; generator too tight", nonTrivial)
	}
}

func newicks(ts []*tree.Tree) []string {
	out := make([]string, len(ts))
	for i, c := range ts {
		out[i] = c.Newick()
	}
	return out
}

func TestFigure1aExample(t *testing.T) {
	// The paper's Figure 1a: two taxa a, b missing from the initial tree;
	// a has 2 admissible branches, b has 2, non-overlapping: 4 stand trees,
	// and the recursion walks 12 arrows (6 insertions + 6 removals).
	// We build an equivalent instance: initial tree on {A,B,C,D,E,F}, and
	// constraints placing X among {A,B} (2 ways) and Y among {E,F} (2 ways).
	taxa := tree.MustTaxa([]string{"A", "B", "C", "D", "E", "F", "X", "Y"})
	init := tree.MustParse("((A,B),((C,D),(E,F)));", taxa)
	cx := tree.MustParse("((A,X),(C,(E,F)));", taxa) // X inside {A,B} clade: edges to A or (A,B)... constrained below
	cy := tree.MustParse("((E,Y),(C,(A,B)));", taxa) // Y inside {E,F} clade
	res, err := Run([]*tree.Tree{init, cx, cy}, Options{InitialTree: 0, CollectTrees: true})
	if err != nil {
		t.Fatal(err)
	}
	want, err := brute.EnumerateStand(taxa, []*tree.Tree{init, cx, cy})
	if err != nil {
		t.Fatal(err)
	}
	if int(res.StandTrees) != len(want) || !equalStringSets(res.Trees, want) {
		t.Fatalf("got %d trees, brute %d", res.StandTrees, len(want))
	}
	if res.DeadEnds != 0 {
		t.Fatalf("expected no dead ends, got %d", res.DeadEnds)
	}
}

func TestEmptyStandFromIncompatibleConstraints(t *testing.T) {
	taxa := tree.MustTaxa([]string{"A", "B", "C", "D", "E"})
	c1 := tree.MustParse("((A,B),(C,D));", taxa)
	c2 := tree.MustParse("((A,C),(B,(D,E)));", taxa)
	res, err := Run([]*tree.Tree{c1, c2}, Options{InitialTree: -1})
	if err != nil {
		t.Fatal(err)
	}
	if res.StandTrees != 0 {
		t.Fatalf("incompatible constraints produced %d trees", res.StandTrees)
	}
}

func TestHeuristicsDoNotChangeTheStand(t *testing.T) {
	rng := rand.New(rand.NewSource(777))
	for scen := 0; scen < 15; scen++ {
		cons := randomScenario(rng, 8, 3, 4, 0.6)
		ref, err := Run(cons, Options{InitialTree: -1, CollectTrees: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, opt := range []Options{
			{InitialTree: 0, CollectTrees: true},
			{InitialTree: -1, DisableDynamicOrder: true, CollectTrees: true},
			{InitialTree: -1, DisableDynamicOrder: true, ShuffleSeed: 5, CollectTrees: true},
			{InitialTree: len(cons) - 1, CollectTrees: true},
		} {
			res, err := Run(cons, opt)
			if err != nil {
				t.Fatal(err)
			}
			if res.StandTrees != ref.StandTrees || !equalStringSets(res.Trees, ref.Trees) {
				t.Fatalf("scen %d: option %+v changed the stand (%d vs %d)",
					scen, opt, res.StandTrees, ref.StandTrees)
			}
		}
	}
}

func TestStoppingRuleTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	// Find a scenario with a reasonably big stand, then cap trees.
	for {
		cons := randomScenario(rng, 10, 2, 4, 0.5)
		full, err := Run(cons, Options{InitialTree: -1})
		if err != nil {
			t.Fatal(err)
		}
		if full.StandTrees < 20 {
			continue
		}
		capped, err := Run(cons, Options{InitialTree: -1, Limits: Limits{MaxTrees: 10}, CheckEvery: 1})
		if err != nil {
			t.Fatal(err)
		}
		if capped.Stop != StopTreeLimit {
			t.Fatalf("stop = %v, want tree-limit", capped.Stop)
		}
		if capped.StandTrees < 10 || capped.StandTrees > full.StandTrees {
			t.Fatalf("capped count %d outside [10, %d]", capped.StandTrees, full.StandTrees)
		}
		return
	}
}

func TestStoppingRuleStates(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for {
		cons := randomScenario(rng, 12, 2, 4, 0.5)
		full, err := Run(cons, Options{InitialTree: -1})
		if err != nil {
			t.Fatal(err)
		}
		if full.IntermediateStates < 50 {
			continue
		}
		capped, err := Run(cons, Options{InitialTree: -1, Limits: Limits{MaxStates: 20}, CheckEvery: 1})
		if err != nil {
			t.Fatal(err)
		}
		if capped.Stop != StopStateLimit {
			t.Fatalf("stop = %v, want state-limit", capped.Stop)
		}
		return
	}
}

func TestStoppingRuleTime(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	// A large scenario that cannot finish in 1ns.
	cons := randomScenario(rng, 40, 4, 6, 0.5)
	res, err := Run(cons, Options{InitialTree: -1, Limits: Limits{MaxTime: time.Nanosecond}, CheckEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stop != StopTimeLimit {
		t.Fatalf("stop = %v, want time-limit", res.Stop)
	}
}

func TestChooseInitialTree(t *testing.T) {
	taxa := tree.MustTaxa(names(8))
	// c0 overlaps others the most.
	c0 := tree.MustParse("((A,B),(C,(D,(E,F))));", taxa)
	c1 := tree.MustParse("((A,B),(C,D));", taxa)
	c2 := tree.MustParse("((E,F),(G,H));", taxa)
	if got := ChooseInitialTree([]*tree.Tree{c0, c1, c2}); got != 0 {
		t.Fatalf("ChooseInitialTree = %d, want 0", got)
	}
}

func TestCountersAdditivity(t *testing.T) {
	var a, b Counters
	a = Counters{1, 2, 3}
	b = Counters{10, 20, 30}
	a.Add(b)
	if a != (Counters{11, 22, 33}) {
		t.Fatalf("Add wrong: %+v", a)
	}
}

func TestEngineEventStream(t *testing.T) {
	// Every insertion performed or booked is removed again, and every state is
	// either inserted (by ExtendTaxon or booked) or looked ahead of; the stand trees are the branches of the
	// final frames, one EvTreeFound each, and what the look-ahead steps
	// counted; the paper's machine is charged two transitions per tree and
	// per state; the engine ends at its base depth.
	rng := rand.New(rand.NewSource(55))
	var all Work
	lookedDead, lookedTrees := int64(0), int64(0)
	// Random stands under the anti-heuristic and under the paper's, then
	// three of the simulated corpus that end inside the prefix under the
	// paper's: all their transitions are the prefix's.
	inputs, heuristic := [][]*tree.Tree{}, []OrderHeuristic{}
	for scen := 0; scen < 30; scen++ {
		inputs, heuristic = append(inputs, randomScenario(rng, 10, 3, 4, 0.5)), append(heuristic, OrderMaxBranches)
	}
	for scen := 0; scen < 30; scen++ {
		inputs, heuristic = append(inputs, randomScenario(rng, 12, 3, 4, 0.5)), append(heuristic, OrderMinBranches)
	}
	for _, idx := range []int{8, 20, 33} {
		cons := gen.Generate(gen.Default(gen.RegimeSimulated), idx).Constraints
		if su, err := Start(cons, -1, OrderMinBranches, nil, nil, 1); err != nil || len(su.Frontier.Tasks) > 0 {
			t.Fatalf("corpus stand %d does not end inside the prefix (%v)", idx, err)
		}
		inputs, heuristic = append(inputs, cons), append(heuristic, OrderMinBranches)
	}
	for scen, cons := range inputs {
		for _, static := range []bool{false, true} {
			res, err := Run(cons, Options{InitialTree: -1, Heuristic: heuristic[scen], DisableDynamicOrder: static, CollectTrees: true})
			if err != nil {
				t.Fatal(err)
			}
			// Replicate with a raw engine that renders nothing and count events.
			tr, err := newTerrace(cons, res.InitialIndex)
			if err != nil {
				t.Fatal(err)
			}
			eng := NewEngine(tr)
			eng.Heuristic = heuristic[scen]
			if static {
				eng.DynamicOrder, eng.Order = false, tr.MissingTaxa()
			}
			var ins, rem, looked, frames, trees, dead int64
			for {
				was := eng.Counters()
				ev := eng.Step()
				if ev == EvDone {
					break
				}
				switch ev {
				case EvInserted, EvDeadEnd:
					ins++
				case EvTreeFound:
					_, branches := eng.FinalFrame()
					frames++
					trees += int64(len(branches))
				case EvRemoved:
					rem++
				case EvLookAhead:
					looked++
					now := eng.Counters()
					last, branches := eng.FinalFrame()
					top := eng.frames[len(eng.frames)-1]
					if branches != nil || last == top.Taxon || tr.Agile().HasTaxon(last) || top.inserted ||
						now.IntermediateStates != was.IntermediateStates+1 ||
						(now.StandTrees == was.StandTrees) == (now.DeadEnds == was.DeadEnds) {
						t.Fatalf("scen %d: a look-ahead step took %+v to %+v, final frame %d %v under %+v", scen, was, now, last, branches, top)
					}
					trees += now.StandTrees - was.StandTrees
					dead += now.DeadEnds - was.DeadEnds
					lookedTrees += now.StandTrees - was.StandTrees
					lookedDead += now.DeadEnds - was.DeadEnds
				}
				if ev == EvDeadEnd {
					dead++
				}
			}
			if ins != rem || ins != res.IntermediateStates-looked {
				t.Fatalf("scen %d: %d insertions, %d removals, %d looked ahead of, %d states", scen, ins, rem, looked, res.IntermediateStates)
			}
			if trees != res.StandTrees || dead != res.DeadEnds || frames > trees {
				t.Fatalf("scen %d: event counts (%d trees in %d final frames, %d dead) disagree with runner (%d, %d)",
					scen, trees, frames, dead, res.StandTrees, res.DeadEnds)
			}
			w := eng.Work()
			if w.Units != 2*trees+2*res.IntermediateStates || w.Units+1 != res.Steps || w.Extends+w.Booked-w.Materialized != ins || w.LookAheads != looked {
				t.Fatalf("scen %d: work %+v for %d trees and %d states; the run took %d steps", scen, w, trees, res.IntermediateStates, res.Steps)
			}
			if tr.Depth() != 0 {
				t.Fatal("engine did not return to base depth")
			}
			all.Add(w)
		}
	}
	if all.LookAheads < 1000 || all.Split < 1000 || all.Extends < 1000 || all.Booked < 1000 || lookedDead < 100 || lookedTrees < 1000 {
		t.Fatalf("work %+v, look-ahead steps counted %d trees and %d dead ends: not enough to mean anything", all, lookedTrees, lookedDead)
	}
}

// newTerrace is a tiny indirection so the test reads naturally.
func newTerrace(cons []*tree.Tree, idx int) (*terrace.Terrace, error) {
	return terrace.New(cons, idx)
}

func TestOrderHeuristicsPreserveStand(t *testing.T) {
	rng := rand.New(rand.NewSource(808))
	for scen := 0; scen < 10; scen++ {
		cons := randomScenario(rng, 9, 3, 4, 0.6)
		ref, err := Run(cons, Options{InitialTree: -1, CollectTrees: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range []OrderHeuristic{OrderMinBranchesTieDegree, OrderMaxBranches} {
			res, err := Run(cons, Options{InitialTree: -1, Heuristic: h, CollectTrees: true})
			if err != nil {
				t.Fatal(err)
			}
			if res.StandTrees != ref.StandTrees || !equalStringSets(res.Trees, ref.Trees) {
				t.Fatalf("scen %d: heuristic %v changed the stand", scen, h)
			}
		}
	}
}

func TestOrderHeuristicStrings(t *testing.T) {
	if OrderMinBranches.String() != "min-branches" ||
		OrderMinBranchesTieDegree.String() != "min-branches/tie-degree" ||
		OrderMaxBranches.String() != "max-branches" {
		t.Fatal("heuristic names wrong")
	}
}

func TestMaxBranchesUsuallyCostsMore(t *testing.T) {
	// The anti-heuristic should do at least as much work on most instances
	// (it cannot do less in aggregate over a batch).
	rng := rand.New(rand.NewSource(909))
	var base, anti int64
	for scen := 0; scen < 8; scen++ {
		cons := randomScenario(rng, 10, 2, 4, 0.55)
		b, err := Run(cons, Options{InitialTree: -1})
		if err != nil {
			t.Fatal(err)
		}
		a, err := Run(cons, Options{InitialTree: -1, Heuristic: OrderMaxBranches})
		if err != nil {
			t.Fatal(err)
		}
		base += b.Steps
		anti += a.Steps
	}
	if anti < base {
		t.Fatalf("anti-heuristic did less total work (%d < %d)", anti, base)
	}
}

func TestPathReplayAcrossTerraces(t *testing.T) {
	// The foundation of work stealing: a path extracted from one engine
	// replays on an independent Terrace built from the same input and
	// reproduces the exact same state (edge ids included).
	rng := rand.New(rand.NewSource(4242))
	cons := randomScenario(rng, 12, 3, 4, 0.55)
	idx := ChooseInitialTree(cons)
	t1, err := terrace.New(cons, idx)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(t1)
	// A rendering engine makes every insertion it steps through; a counting
	// one may hold a booked one, in its path but not in its Terrace.
	eng.OnTrees = func(block []byte, _ int) []byte { return block }
	for i := 0; i < 25 && !eng.Done(); i++ {
		eng.Step()
	}
	if eng.T.Depth() == 0 {
		t.Skip("engine back at root after 25 steps")
	}
	path := eng.Path(nil)
	if len(path) != eng.T.Depth() {
		t.Fatalf("path length %d != depth %d", len(path), eng.T.Depth())
	}
	t2, err := terrace.New(cons, idx)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range path {
		t2.ExtendTaxon(s.Taxon, s.Edge)
	}
	if t1.Signature() != t2.Signature() {
		t.Fatal("replayed state differs from original")
	}
}

func TestPrefixWalkForcedChain(t *testing.T) {
	// A fully pinned instance: the prefix completes the tree (stand of 1).
	taxa := tree.MustTaxa([]string{"A", "B", "C", "D", "E", "F"})
	full := tree.MustParse("((A,(B,C)),(D,(E,F)));", taxa)
	tr, err := terrace.New([]*tree.Tree{full}, 0)
	if err != nil {
		t.Fatal(err)
	}
	res := PrefixWalkH(tr, OrderMinBranches, nil)
	if !res.Terminal || res.Counters.StandTrees != 1 {
		t.Fatalf("prefix = %+v, want terminal with 1 tree", res)
	}
	// Incomplete instance: a split with >= 2 branches must be reported.
	c1 := tree.MustParse("((A,B),(C,D));", taxa)
	c2 := tree.MustParse("((C,D),(E,F));", taxa)
	tr2, err := terrace.New([]*tree.Tree{c1, c2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	res2 := PrefixWalkH(tr2, OrderMinBranches, nil)
	if res2.Terminal {
		t.Fatal("unexpected terminal prefix")
	}
	if len(res2.SplitBranches) < 2 {
		t.Fatalf("split with %d branches", len(res2.SplitBranches))
	}
}
