package terrace

import (
	"fmt"
	"testing"

	"gentrius/internal/gen"
	"gentrius/internal/tree"
)

// benchStands are the simulated corpus's datasets the benchmark runs: the
// sixteen of count-many, then count-deep's one.
var benchStands = []int{0, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 104}

// TestNewOnBenchStandsMatchesReference is the initialiser's differential
// test on the stands the benchmark runs, read back from their Newick text as
// its runs read them, at every choice of initial tree (the first alone with
// -short): every field of New's state against the reference initialiser's.
// Most of these News orient the agile tree for several distinct s0. (No
// constraint of these stands is inactive at any initial tree: FuzzNewEquiv's
// seeds hold such News.)
func TestNewOnBenchStandsMatchesReference(t *testing.T) {
	news, grouped := 0, 0
	for _, idx := range benchStands {
		ds := gen.Generate(gen.Default(gen.RegimeSimulated), idx)
		lines := make([]string, len(ds.Constraints))
		for i, c := range ds.Constraints {
			lines[i] = c.Newick()
		}
		cons, err := tree.ReadLines(lines)
		if err != nil {
			t.Fatal(err)
		}
		for k := range cons {
			if testing.Short() && k > 0 {
				break
			}
			if !checkAgainstReference(t, cons, k, fmt.Sprintf("%s initial %d", ds.Name, k)) {
				t.Fatalf("%s initial %d: a stand of the corpus reported incompatible", ds.Name, k)
			}
			tr, err := New(cons, k)
			if err != nil {
				t.Fatal(err)
			}
			s0 := map[int]bool{}
			for _, cs := range tr.constraints {
				s0[cs.s.Min()] = true
			}
			news++
			if len(s0) > 1 {
				grouped++
			}
			tr.Release()
		}
	}
	if grouped < news/2 {
		t.Fatalf("only %d of %d News orient the agile tree more than once", grouped, news)
	}
}
