package tree_test

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"gentrius"
	"gentrius/internal/gen"
	"gentrius/internal/tree"
)

// TestReadTreesMatchesTwoPass reads the constraint files of the generated
// corpus (both regimes, datasets 0-119, as genstand writes them) through
// gentrius.ReadTrees and through the two-pass routine it used to be: same
// taxon names in the same order, every tree identical id for id.
func TestReadTreesMatchesTwoPass(t *testing.T) {
	trees := 0
	for _, regime := range []gen.Regime{gen.RegimeSimulated, gen.RegimeEmpirical} {
		cfg := gen.Default(regime)
		for idx := 0; idx < 120; idx++ {
			ds := gen.Generate(cfg, idx)
			var text bytes.Buffer
			if err := gentrius.WriteTrees(&text, ds.Constraints); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSuffix(text.String(), "\n"), "\n")
			want, wantTaxa, err := tree.ReferenceReadLines(lines)
			if err != nil {
				t.Fatalf("%s: reference: %v", ds.Name, err)
			}
			got, taxa, err := gentrius.ReadTrees(&text, nil)
			if err != nil {
				t.Fatalf("%s: %v", ds.Name, err)
			}
			if !slices.Equal(taxa.Names(), wantTaxa.Names()) {
				t.Fatalf("%s: taxa differ in name or order", ds.Name)
			}
			if len(got) != len(want) {
				t.Fatalf("%s: %d trees, want %d", ds.Name, len(got), len(want))
			}
			for i := range want {
				if err := tree.SameStructure(got[i], want[i]); err != nil {
					t.Fatalf("%s tree %d: %v", ds.Name, i, err)
				}
			}
			trees += len(got)
		}
	}
	t.Logf("%d trees identical", trees)
}

// TestReadTreesAllocations pins the reader's storage rule on the benchmark's
// count-many inputs: each tree's nodes and edges in one allocation, and what
// is sized to the universe in one slab for all the trees of a file, so that
// reading a file makes at most two allocations a tree besides the
// universe's own. Read against its finished universe, a file registers no
// taxon, so what is counted is the reader's alone.
func TestReadTreesAllocations(t *testing.T) {
	trees, allocs := 0, 0.0
	for _, idx := range []int{0, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16} {
		ds := gen.Generate(gen.Default(gen.RegimeSimulated), idx)
		var text bytes.Buffer
		if err := gentrius.WriteTrees(&text, ds.Constraints); err != nil {
			t.Fatal(err)
		}
		in := bytes.NewReader(text.Bytes())
		_, taxa, err := gentrius.ReadTrees(in, nil)
		if err != nil {
			t.Fatal(err)
		}
		allocs += testing.AllocsPerRun(5, func() {
			in.Reset(text.Bytes())
			if _, _, err := gentrius.ReadTrees(in, taxa); err != nil {
				t.Fatal(err)
			}
		})
		trees += len(ds.Constraints)
	}
	t.Logf("%v allocations for %d trees", allocs, trees)
	if allocs > 2*float64(trees) {
		t.Fatalf("%v allocations for %d trees: more than two a tree", allocs, trees)
	}
}
