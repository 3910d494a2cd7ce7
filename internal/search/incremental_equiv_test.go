package search

import (
	"math/rand"
	"sort"
	"testing"

	"gentrius/internal/terrace"
)

// refConstraintDegree recounts Terrace.Degree from the constraints' leaf sets
// for the reference enumerator.
func refConstraintDegree(tr *terrace.Terrace) []int {
	deg := make([]int, tr.Taxa().Len())
	for i := 0; i < tr.NumConstraints(); i++ {
		tr.Constraint(i).LeafSet().ForEach(func(t int) { deg[t]++ })
	}
	return deg
}

// refNextTaxon is the historical taxon-selection rule: a fresh
// CountAllowedBranches per pending taxon at every state. The engine's
// PendingCount-based selection must match it bit for bit.
func refNextTaxon(tr *terrace.Terrace, h OrderHeuristic, deg []int) int {
	best, bestCount := -1, -1
	for _, x := range tr.MissingTaxa() {
		if tr.Agile().HasTaxon(x) {
			continue
		}
		c := tr.CountAllowedBranches(x)
		if c == 0 {
			return x
		}
		switch {
		case best == -1:
			best, bestCount = x, c
		case h == OrderMaxBranches:
			if c > bestCount {
				best, bestCount = x, c
			}
		case c < bestCount:
			best, bestCount = x, c
		case c == bestCount && h == OrderMinBranchesTieDegree:
			if deg[x] > deg[best] {
				best, bestCount = x, c
			}
		}
	}
	return best
}

// leafByLeaf is the paper's machine, kept as the oracle of the engine's step
// loop: a direct recursive transcription of Algorithm 1 that inserts and
// removes every taxon, the last one included, scans admissibility afresh
// everywhere, and renders each stand tree from the agile tree that holds it.
type leafByLeaf struct {
	tr   *terrace.Terrace
	next func() int // taxon selection at the current state
	Counters
	trees  []string // in enumeration order
	mass   float64  // random-descent probability of the leaves closed
	leaves int64
	steps  int64 // insertions + removals
	limit  int64 // the run stops at this many trees, where positive
}

// run enumerates everything below the terrace's current state.
func (o *leafByLeaf) run() {
	if o.tr.Complete() {
		o.StandTrees, o.trees = 1, []string{o.tr.Agile().Newick()}
		o.mass, o.leaves, o.steps = 1, 1, 1
		return
	}
	o.explore(1)
}

func (o *leafByLeaf) explore(weight float64) {
	x := o.next()
	br := o.tr.AllowedBranches(x)
	if len(br) == 0 {
		o.DeadEnds++
		o.mass += weight
		o.leaves++
		return
	}
	w := weight / float64(len(br))
	for _, e := range br {
		if o.limit > 0 && o.StandTrees >= o.limit {
			return // the Terrace is left where the run stopped
		}
		o.tr.ExtendTaxon(x, e)
		if o.tr.Complete() {
			o.StandTrees++
			o.trees = append(o.trees, o.tr.Agile().Newick())
			o.mass += w
			o.leaves++
		} else {
			o.IntermediateStates++
			o.explore(w)
		}
		o.tr.RemoveTaxon()
		o.steps += 2
	}
}

// refEnumerate runs the oracle with the reference selection rule.
func refEnumerate(tr *terrace.Terrace, h OrderHeuristic) *leafByLeaf {
	deg := refConstraintDegree(tr)
	o := &leafByLeaf{tr: tr, next: func() int { return refNextTaxon(tr, h, deg) }}
	o.run()
	return o
}

// zeroAfterOne reports whether the scan of the current state meets a pending
// taxon with no admissible branch after one with exactly one: the one state
// where the min-branches scan must go on past a minimum it cannot beat.
func zeroAfterOne(tr *terrace.Terrace) bool {
	one := false
	for _, x := range tr.MissingTaxa() {
		if tr.Agile().HasTaxon(x) {
			continue
		}
		switch tr.CountAllowedBranches(x) {
		case 0:
			return one
		case 1:
			one = true
		}
	}
	return false
}

// TestIncrementalSelectionEquivalence verifies that the engine built on the
// incremental admissible-branch accounting produces exactly the counters and
// stand of the full-recount reference, for all three order heuristics. The
// trials must reach a state where a dead-end taxon follows a count-1 minimum
// in the scan (zeroAfterOne), which the corpus stands never do.
func TestIncrementalSelectionEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(8311))
	heuristics := []OrderHeuristic{OrderMinBranches, OrderMinBranchesTieDegree, OrderMaxBranches}
	zeroAfterOnes := 0
	for trial := 0; trial < 100; trial++ {
		cons := randomScenario(rng, 8+rng.Intn(5), 2+rng.Intn(3), 4, 0.5+0.3*rng.Float64())
		for _, h := range heuristics {
			refT, err := terrace.New(cons, 0)
			if err != nil {
				t.Fatal(err)
			}
			deg := refConstraintDegree(refT)
			ref := &leafByLeaf{tr: refT, next: func() int {
				if h == OrderMinBranches && zeroAfterOne(refT) {
					zeroAfterOnes++
				}
				return refNextTaxon(refT, h, deg)
			}}
			ref.run()
			refC, refTrees := ref.Counters, ref.trees

			engT, err := terrace.New(cons, 0)
			if err != nil {
				t.Fatal(err)
			}
			eng := NewEngine(engT)
			eng.Heuristic = h
			var engTrees []string
			eng.OnTree = func(nw string) { engTrees = append(engTrees, nw) }
			for eng.Step() != EvDone {
			}

			if eng.Counters() != refC {
				t.Fatalf("trial %d %v: engine %+v != reference %+v",
					trial, h, eng.Counters(), refC)
			}
			sort.Strings(refTrees)
			sort.Strings(engTrees)
			if len(refTrees) != len(engTrees) {
				t.Fatalf("trial %d %v: %d trees != reference %d", trial, h, len(engTrees), len(refTrees))
			}
			for i := range refTrees {
				if refTrees[i] != engTrees[i] {
					t.Fatalf("trial %d %v: stand differs at %d", trial, h, i)
				}
			}
		}
	}
	if zeroAfterOnes == 0 {
		t.Fatal("no state had a dead-end taxon after a count-1 minimum; choose other scenarios")
	}
	t.Logf("%d states with a dead-end taxon after a count-1 minimum", zeroAfterOnes)
}

// TestStepSteadyStateAllocs pins the allocation-free step loop: once the
// frame stack and terrace buffers have warmed up, thousands of further state
// transitions must allocate (essentially) nothing.
func TestStepSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(4099))
	cons := randomScenario(rng, 60, 8, 5, 0.4)
	tr, err := terrace.New(cons, 0)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(tr)
	const steps = 2000
	run := func() {
		for i := 0; i < steps; i++ {
			if eng.Step() == EvDone {
				t.Fatal("search space exhausted mid-measurement; enlarge the scenario")
			}
		}
	}
	// AllocsPerRun performs one warm-up call before measuring, which grows
	// every stack and buffer to its steady-state capacity.
	avg := testing.AllocsPerRun(1, run)
	if perStep := avg / steps; perStep > 0.01 {
		t.Fatalf("steady-state step loop allocates %.4f allocs/step (%v allocs per %d steps); want ~0",
			perStep, avg, steps)
	}
}
