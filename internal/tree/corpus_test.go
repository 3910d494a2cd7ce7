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
