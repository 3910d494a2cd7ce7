//go:build !race

package terrace_test

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"gentrius/internal/gen"
	"gentrius/internal/search"
	"gentrius/internal/terrace"
	"gentrius/internal/tree"
)

// ledgerRow sums the restructuring insertions of a set of stands.
type ledgerRow struct {
	stands, heavy           int
	insertions, restructure int64
	split                   int64            // the restructuring insertions that are a Split
	byMissing, splitMissing map[int]int64    // by taxa missing before the insertion, 12 for 12 and more
	byFires                 map[[2]int]int64 // by constraints firing and taxa re-targeted
	activation              int64            // the restructuring insertions that activate a constraint
	heavyTime               time.Duration    // the serial time of the restructure-heavy stands
	heavyList               []string         // and their names
}

// TestRestructuringLedger reports, and does not gate, where a counting run's
// restructuring insertions lie and what share of them the overlay books as a
// split (Overlay.Shape is Split: one constraint fires, by the shared-target
// clause, for one taxon). It runs corpus idx 0-119 of both regimes in both
// numberings — the generator's taxon ids, and ids by first appearance, as a
// run that reads the stand from its Newick text numbers them — over the
// stands a 2 M-state counting run exhausts. A recursion in the engine's
// min-branches order inserts every taxon but the last for real and classes
// each insertion (Overlay.Fires): by the taxa missing before it, and by how
// many constraints fire and how many taxa they re-target. A stand is
// restructure-heavy where at least a tenth of its insertions restructure; the
// row gives their serial time (search.Run, best of three). It takes about a
// minute, and is skipped under -short and the race detector.
func TestRestructuringLedger(t *testing.T) {
	if testing.Short() {
		t.Skip("a minute of corpus runs")
	}
	for _, regime := range []gen.Regime{gen.RegimeSimulated, gen.RegimeEmpirical} {
		for _, read := range []bool{false, true} {
			row := ledgerRow{byMissing: map[int]int64{}, splitMissing: map[int]int64{}, byFires: map[[2]int]int64{}}
			for i := 0; i < 120; i++ {
				cons := gen.Generate(gen.Default(regime), i).Constraints
				if read {
					cons = readBack(t, cons)
				}
				ledgerStand(t, fmt.Sprintf("%v %d", regime, i), cons, &row)
			}
			name := fmt.Sprintf("%v 0-119, generator ids", regime)
			if read {
				name = fmt.Sprintf("%v 0-119, as read", regime)
			}
			t.Logf("%s: %d stands, %d insertions, %d restructuring, %d of them splits (%.2f %%), %d activations",
				name, row.stands, row.insertions, row.restructure, row.split, pct(row.split, row.restructure), row.activation)
			var miss []string
			for m := 2; m <= 12; m++ {
				miss = append(miss, fmt.Sprintf("%d: %d (%d split)", m, row.byMissing[m], row.splitMissing[m]))
			}
			t.Logf("  by taxa missing (12: 12 and more): %s", strings.Join(miss, ", "))
			var shapes [][2]int
			for k := range row.byFires {
				shapes = append(shapes, k)
			}
			slices.SortFunc(shapes, func(a, b [2]int) int { return cmp.Compare(row.byFires[b], row.byFires[a]) })
			var fires []string
			rest := row.restructure - row.activation
			for _, k := range shapes[:min(8, len(shapes))] {
				fires = append(fires, fmt.Sprintf("%d/%d: %d", k[0], k[1], row.byFires[k]))
				rest -= row.byFires[k]
			}
			t.Logf("  by constraints firing / taxa re-targeted: %s, other shapes %d", strings.Join(fires, ", "), rest)
			t.Logf("  restructure-heavy: %d stands, serial %.1f ms: %s", row.heavy,
				float64(row.heavyTime.Microseconds())/1e3, strings.Join(row.heavyList, ", "))
		}
	}
}

// ledgerStand adds one stand to the row, where a 2 M-state run exhausts it.
func ledgerStand(t *testing.T, name string, cons []*tree.Tree, row *ledgerRow) {
	t.Helper()
	opts := search.Options{InitialTree: -1, Limits: search.Limits{MaxTrees: -1, MaxStates: 2_000_000, MaxTime: -1}}
	best := time.Duration(1 << 62)
	var res *search.Result
	for k := 0; k < 3; k++ {
		start := time.Now()
		r, err := search.Run(cons, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		best, res = min(best, time.Since(start)), r
		if r.Stop != search.StopExhausted {
			return
		}
	}
	tr, err := terrace.New(cons, res.InitialIndex)
	if errors.Is(err, terrace.ErrIncompatible) {
		return
	}
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	defer tr.Release()
	var insertions, restructure int64
	var visit func()
	visit = func() {
		missing := tr.Taxa().Len() - tr.Agile().NumLeaves()
		if missing <= 1 {
			return
		}
		x := minBranches(tr)
		for _, e := range tr.AllowedBranches(x) {
			insertions++
			if ov := tr.Overlay(); ov.Shape(x) != terrace.Additive {
				restructure++
				c, y, act := ov.Fires(x)
				missing := min(missing, 12)
				row.byMissing[missing]++
				switch {
				case act:
					row.activation++
				case c == 1 && y == 1:
					row.split++
					row.splitMissing[missing]++
					fallthrough
				default:
					row.byFires[[2]int{c, y}]++
				}
			}
			tr.ExtendTaxon(x, e)
			visit()
			tr.RemoveTaxon()
		}
	}
	visit()
	if insertions != res.IntermediateStates {
		t.Fatalf("%s: the ledger made %d insertions, the engine %d states: it walks another tree", name, insertions, res.IntermediateStates)
	}
	row.stands++
	row.insertions += insertions
	row.restructure += restructure
	if restructure*10 >= insertions && restructure > 0 {
		row.heavy++
		row.heavyTime += best
		row.heavyList = append(row.heavyList, strings.TrimPrefix(strings.TrimPrefix(name, "simulated "), "empirical "))
	}
}

// minBranches is the engine's dynamic rule: in MissingTaxa order, the first
// pending taxon without a branch, else the first with the fewest.
func minBranches(tr *terrace.Terrace) int {
	best, bestCount := -1, -1
	for _, x := range tr.MissingTaxa() {
		if tr.Agile().HasTaxon(x) {
			continue
		}
		c := tr.PendingCount(x)
		if c == 0 {
			return x
		}
		if best == -1 || c < bestCount {
			best, bestCount = x, c
		}
	}
	return best
}

// readBack returns the stand as a run reads it from its Newick text.
func readBack(t *testing.T, cons []*tree.Tree) []*tree.Tree {
	t.Helper()
	lines := make([]string, len(cons))
	for i, c := range cons {
		lines[i] = c.Newick()
	}
	read, err := tree.ReadLines(lines)
	if err != nil {
		t.Fatal(err)
	}
	return read
}

func pct(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}
