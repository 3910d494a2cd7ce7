package search_test

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"gentrius/internal/gen"
	"gentrius/internal/search"
	"gentrius/internal/terrace"
	"gentrius/internal/tree"
)

// probeRow is one row of TestOverlayProbe's report.
type probeRow struct {
	stands                    int
	insertions, restructuring int64 // above the last taxon, and those that restructure
	clean                     int64 // in a subtree none of whose insertions restructures
	extends, booked, mater    int64 // the engine's ExtendTaxon calls, bookings and materializations
	floor                     int64 // insertions - clean: the ExtendTaxon calls no booking avoids
	steps, whole              int64 // the engine's Step calls, and the subtrees it took in one
}

// TestOverlayProbe reports, and does not gate, how much of a counting run the
// overlay can book and how many steps the engine takes for it: on the
// benchmark's deep stand (simulated idx 104) in the corpus's taxon ids and as
// the benchmark reads it — from its Newick text, ids by first appearance, so
// ties in the min-branches rule fall otherwise — and on every stand of idx
// 0-119 of both corpus regimes that a 2 M-state run exhausts. A recursion in
// the engine's min-branches order inserts every taxon but the last for real
// and asks the overlay's rule (Restructures) of each insertion; an insertion
// lies in a clean subtree when neither it nor any insertion below it
// restructures. Those outside clean subtrees are the floor of ExtendTaxon
// calls: the engine's calls should be within the floor plus its
// materializations. The steps are those of Run's one worker, which takes a
// booked subtree in one where no check falls inside it (whole). The corpus
// rows take tens of seconds, and are skipped under -short and the race
// detector.
func TestOverlayProbe(t *testing.T) {
	t.Logf("%-24s %6s %12s %12s %12s %10s %10s %10s %10s %10s %10s", "stands", "n", "insertions", "restructure",
		"clean", "floor", "extends", "booked", "materialized", "steps", "whole")
	report := func(name string, r probeRow) {
		t.Logf("%-24s %6d %12d %12d %12d %10d %10d %10d %10d %10d %10d", name, r.stands, r.insertions, r.restructuring,
			r.clean, r.floor, r.extends, r.booked, r.mater, r.steps, r.whole)
	}
	deep := gen.Generate(gen.Default(gen.RegimeSimulated), 104)
	report("count-deep (sim 104)", probeStands(t, [][]*tree.Tree{deep.Constraints}))
	lines := make([]string, len(deep.Constraints))
	for i, c := range deep.Constraints {
		lines[i] = c.Newick()
	}
	read, err := tree.ReadLines(lines)
	if err != nil {
		t.Fatal(err)
	}
	report("count-deep as read", probeStands(t, [][]*tree.Tree{read}))
	if testing.Short() || raceEnabled {
		return
	}
	for _, regime := range []gen.Regime{gen.RegimeSimulated, gen.RegimeEmpirical} {
		var stands [][]*tree.Tree
		for i := 0; i < 120; i++ {
			stands = append(stands, gen.Generate(gen.Default(regime), i).Constraints)
		}
		report(fmt.Sprintf("%v 0-119", regime), probeStands(t, stands))
	}
}

// probeStands sums the probe over the stands that a 2 M-state counting run
// exhausts.
func probeStands(t *testing.T, stands [][]*tree.Tree) probeRow {
	t.Helper()
	var row probeRow
	lim := search.Limits{MaxTrees: -1, MaxStates: 2_000_000, MaxTime: -1}
	for i, cons := range stands {
		res, err := search.Run(cons, search.Options{InitialTree: -1, Limits: lim})
		if err != nil {
			t.Fatalf("stand %d: %v", i, err)
		}
		if res.Stop != search.StopExhausted {
			continue
		}
		tr, err := terrace.New(cons, res.InitialIndex)
		if errors.Is(err, terrace.ErrIncompatible) {
			continue
		}
		if err != nil {
			t.Fatalf("stand %d: %v", i, err)
		}
		p := &prober{tr: tr, ov: tr.Overlay()}
		_, clean, _ := p.visit()
		tr.Release()
		if p.insertions != res.IntermediateStates {
			t.Fatalf("stand %d: the probe made %d insertions, the engine %d states: it walks another tree", i, p.insertions, res.IntermediateStates)
		}
		steps, work := stepCalls(t, cons)
		if work.Booked != res.Work.Booked || work.Whole != res.Work.Whole {
			t.Fatalf("stand %d: the probe's run did %+v, Run's %+v", i, work, res.Work)
		}
		row.stands++
		row.insertions += p.insertions
		row.restructuring += p.restructuring
		row.clean += clean
		row.extends += res.Work.Extends
		row.booked += res.Work.Booked
		row.mater += res.Work.Materialized
		row.steps += steps
		row.whole += res.Work.Whole
	}
	row.floor = row.insertions - row.clean
	return row
}

// stepCalls runs the stand as Run does — its set-up, then one worker that
// offers nothing, publishes only at the checks every 1024 units and is
// ticked within the units to the next — and counts the engine's Step calls,
// which Run does not report: the worker's ticks in the Explore phase.
func stepCalls(t *testing.T, cons []*tree.Tree) (steps int64, work search.Work) {
	t.Helper()
	su, err := search.Start(cons, -1, search.OrderMinBranches, nil, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer su.Release()
	if len(su.Frontier.Tasks) == 0 {
		return 0, work
	}
	w := su.NewWorker(search.Policy{TreeBatch: math.MaxInt64, StateBatch: math.MaxInt64,
		DeadEndBatch: math.MaxInt64, MinRemaining: math.MaxInt}, probeHost{}, nil, false)
	const every = 1024
	units, next := int64(len(su.Frontier.Prefix)), int64(every)
	for i, task := range su.Frontier.Tasks {
		if i > 0 {
			w.Flush()
			next = units + every
		}
		if err := w.Begin(task); err != nil {
			t.Fatal(err)
		}
		for ph := search.Replay; ph != search.Idle; {
			was := ph
			var cost int64
			if ph, cost = w.Tick(next - units); was == search.Explore {
				steps++
			}
			if ph == search.Explore {
				if units += cost; units >= next {
					w.Flush()
					next = units + every
				}
			}
		}
	}
	return steps, w.Work()
}

// probeHost takes no offer and drops what it is published.
type probeHost struct{}

func (probeHost) Offer([]search.PathStep, *search.Frame, int) int { return 0 }
func (probeHost) Full() bool                                      { return false }
func (probeHost) Publish(search.Counters)                         {}
func (probeHost) Trees(block []byte, n int) []byte                { return block }

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
