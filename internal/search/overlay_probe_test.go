package search_test

import (
	"errors"
	"testing"

	"gentrius/internal/gen"
	"gentrius/internal/search"
	"gentrius/internal/terrace"
)

// probeRow is one row of TestOverlayProbe's report.
type probeRow struct {
	stands                    int
	insertions, restructuring int64 // above the last taxon, and those that restructure
	clean                     int64 // in a subtree none of whose insertions restructures
	extends, booked, mater    int64 // the engine's ExtendTaxon calls, bookings and materializations
	floor                     int64 // insertions - clean: the ExtendTaxon calls no booking avoids
}

// TestOverlayProbe reports, and does not gate, how much of a counting run the
// overlay can book: on the benchmark's deep stand (simulated idx 104) and on
// every stand of idx 0-119 of both corpus regimes that a 2 M-state run
// exhausts. A recursion in the engine's min-branches order inserts every
// taxon but the last for real and asks the overlay's rule (Restructures) of
// each insertion; an insertion lies in a clean subtree when neither it nor
// any insertion below it restructures. Those outside clean subtrees are the
// floor of ExtendTaxon calls: the engine's calls should be within the floor
// plus its materializations. The corpus rows take tens of seconds, and are
// skipped under -short and the race detector.
func TestOverlayProbe(t *testing.T) {
	deep := probeStands(t, gen.RegimeSimulated, []int{104})
	t.Logf("%-20s %6s %12s %12s %12s %10s %10s %10s %10s", "stands", "n", "insertions", "restructure", "clean", "floor", "extends", "booked", "materialized")
	report := func(name string, r probeRow) {
		t.Logf("%-20s %6d %12d %12d %12d %10d %10d %10d %10d", name, r.stands, r.insertions, r.restructuring, r.clean, r.floor, r.extends, r.booked, r.mater)
	}
	report("count-deep (sim 104)", deep)
	if testing.Short() || raceEnabled {
		return
	}
	idx := make([]int, 120)
	for i := range idx {
		idx[i] = i
	}
	report("simulated 0-119", probeStands(t, gen.RegimeSimulated, idx))
	report("empirical 0-119", probeStands(t, gen.RegimeEmpirical, idx))
}

// probeStands sums the probe over the stands of the regime at idx that a
// 2 M-state counting run exhausts.
func probeStands(t *testing.T, regime gen.Regime, idx []int) probeRow {
	t.Helper()
	var row probeRow
	lim := search.Limits{MaxTrees: -1, MaxStates: 2_000_000, MaxTime: -1}
	for _, i := range idx {
		ds := gen.Generate(gen.Default(regime), i)
		res, err := search.Run(ds.Constraints, search.Options{InitialTree: -1, Limits: lim})
		if err != nil {
			t.Fatalf("%s: %v", ds.Name, err)
		}
		if res.Stop != search.StopExhausted {
			continue
		}
		tr, err := terrace.New(ds.Constraints, res.InitialIndex)
		if errors.Is(err, terrace.ErrIncompatible) {
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", ds.Name, err)
		}
		p := &prober{tr: tr, ov: tr.Overlay()}
		_, clean, _ := p.visit()
		tr.Release()
		if p.insertions != res.IntermediateStates {
			t.Fatalf("%s: the probe made %d insertions, the engine %d states: it walks another tree", ds.Name, p.insertions, res.IntermediateStates)
		}
		row.stands++
		row.insertions += p.insertions
		row.restructuring += p.restructuring
		row.clean += clean
		row.extends += res.Work.Extends
		row.booked += res.Work.Booked
		row.mater += res.Work.Materialized
	}
	row.floor = row.insertions - row.clean
	return row
}

// prober is the probe's recursion over one Terrace.
type prober struct {
	tr                        *terrace.Terrace
	ov                        *terrace.Overlay
	insertions, restructuring int64
}

// visit inserts, in turn, every branch of the taxon the min-branches rule
// picks, and below each the same, down to the last taxon, which it leaves
// out. It returns the insertions made below, how many of them lie in clean
// subtrees, and whether all of them do.
func (p *prober) visit() (size, clean int64, allClean bool) {
	if p.tr.Taxa().Len()-p.tr.Agile().NumLeaves() <= 1 {
		return 0, 0, true
	}
	x := p.minBranches()
	allClean = true
	for _, e := range p.tr.AllowedBranches(x) {
		r := p.ov.Restructures(x)
		p.tr.ExtendTaxon(x, e)
		subSize, subClean, subAll := p.visit()
		p.tr.RemoveTaxon()
		p.insertions++
		size += 1 + subSize
		if r {
			p.restructuring++
		}
		if !r && subAll {
			clean += 1 + subSize
		} else {
			clean += subClean
			allClean = false
		}
	}
	return size, clean, allClean
}

// minBranches is the engine's dynamic rule: in MissingTaxa order, the first
// pending taxon without a branch, else the first with the fewest.
func (p *prober) minBranches() int {
	best, bestCount := -1, -1
	for _, x := range p.tr.MissingTaxa() {
		if p.tr.Agile().HasTaxon(x) {
			continue
		}
		c := p.tr.PendingCount(x)
		if c == 0 {
			return x
		}
		if best == -1 || c < bestCount {
			best, bestCount = x, c
		}
	}
	return best
}
