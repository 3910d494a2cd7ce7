package terrace

import (
	"errors"
	"math/rand"
	"testing"

	"gentrius/internal/bitset"
	"gentrius/internal/tree"
)

func names(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = "t" + string(rune('a'+i%26)) + string(rune('0'+i/26%10)) + string(rune('0'+i/260))
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

// randomScenario generates a compatible constraint set: induced subtrees of
// one random "true" tree under a random PAM whose columns each have at least
// minCol taxa and whose union covers all taxa.
func randomScenario(rng *rand.Rand, n, m, minCol int, pPresent float64) (*tree.Taxa, []*tree.Tree) {
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
		cs := make([]*tree.Tree, m)
		for j, c := range cols {
			cs[j] = truth.Restrict(c)
		}
		return taxa, cs
	}
}

// oracleAllowed recomputes the admissible branches for x from first
// principles: edge e is admissible iff attaching x at e keeps the agile
// tree's restriction to the common taxa equal to every constraint's
// restriction.
func oracleAllowed(agile *tree.Tree, constraints []*tree.Tree, x int) []int32 {
	var out []int32
	for e := int32(0); e < int32(agile.NumEdges()); e++ {
		c := agile.Clone()
		c.AttachLeaf(x, e)
		ok := true
		for _, ct := range constraints {
			common := c.LeafSet().Clone()
			common.IntersectWith(ct.LeafSet())
			if common.Count() < 4 {
				continue // at most one topology exists: trivially compatible
			}
			if !c.Restrict(common).SameTopology(ct.Restrict(common)) {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, e)
		}
	}
	return out
}

func equalEdgeLists(a, b []int32) bool {
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

func TestNewRejectsBadInput(t *testing.T) {
	taxa := tree.MustTaxa([]string{"A", "B", "C", "D", "E"})
	c := tree.MustParse("((A,B),(C,D));", taxa)
	if _, err := New(nil, 0); err == nil {
		t.Fatal("expected error for empty constraint set")
	}
	if _, err := New([]*tree.Tree{c}, 2); err == nil {
		t.Fatal("expected error for bad initial index")
	}
	// Taxon E is uncovered.
	if _, err := New([]*tree.Tree{c}, 0); err == nil {
		t.Fatal("expected error for uncovered taxon")
	}
	small := tree.MustParse("(A,B,E);", taxa)
	if _, err := New([]*tree.Tree{c, small}, 0); err == nil {
		t.Fatal("expected error for tiny constraint tree")
	}
}

func TestNewDetectsIncompatibility(t *testing.T) {
	taxa := tree.MustTaxa([]string{"A", "B", "C", "D", "E"})
	c1 := tree.MustParse("((A,B),(C,D));", taxa)
	c2 := tree.MustParse("((A,C),(B,(D,E)));", taxa) // conflicts with c1 on {A,B,C,D}
	_, err := New([]*tree.Tree{c1, c2}, 0)
	if err == nil {
		t.Fatal("expected incompatibility error")
	}
	if !errors.Is(err, ErrIncompatible) {
		t.Fatalf("error %v is not ErrIncompatible", err)
	}
}

func TestAllowedBranchesTinyExample(t *testing.T) {
	// Figure-1a-like setup: agile tree on {A,B,C,D}, one constraint forcing
	// E next to A.
	taxa := tree.MustTaxa([]string{"A", "B", "C", "D", "E"})
	init := tree.MustParse("((A,B),(C,D));", taxa)
	con := tree.MustParse("((A,E),(B,C));", taxa) // E attaches on A's side
	tr, err := New([]*tree.Tree{init, con}, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := tr.AllowedBranches(4) // E
	want := oracleAllowed(tr.Agile(), []*tree.Tree{init, con}, 4)
	if !equalEdgeLists(got, want) {
		t.Fatalf("AllowedBranches = %v, oracle %v", got, want)
	}
	if len(got) != 1 {
		t.Fatalf("E should have exactly 1 admissible branch (A's pendant), got %v", got)
	}
	// It must be A's pendant edge.
	aLeaf := tr.Agile().LeafNode(0)
	if tr.Agile().Other(got[0], aLeaf) == tree.NoNode {
		t.Fatal("not A's pendant edge")
	}
}

func TestAllowedAgainstOracleRandomWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for scen := 0; scen < 15; scen++ {
		n := 8 + rng.Intn(10)
		m := 2 + rng.Intn(4)
		taxa, cons := randomScenario(rng, n, m, 4, 0.7)
		_ = taxa
		tr, err := New(cons, 0)
		if err != nil {
			t.Fatalf("scen %d: %v", scen, err)
		}
		consTrees := make([]*tree.Tree, len(cons))
		copy(consTrees, cons)

		missing := tr.MissingTaxa()
		if len(missing) == 0 {
			continue
		}
		// Random insert/remove walk with oracle checks at every state.
		for step := 0; step < 60; step++ {
			var remaining []int
			for _, x := range missing {
				if !tr.Agile().HasTaxon(x) {
					remaining = append(remaining, x)
				}
			}
			if len(remaining) == 0 || (tr.Depth() > 0 && rng.Intn(3) == 0) {
				if tr.Depth() > 0 {
					x := tr.LastInserted()
					if got := tr.RemoveTaxon(); got != x {
						t.Fatalf("RemoveTaxon returned %d, want %d", got, x)
					}
				}
				continue
			}
			x := remaining[rng.Intn(len(remaining))]
			got := tr.AllowedBranches(x)
			want := oracleAllowed(tr.Agile(), consTrees, x)
			if !equalEdgeLists(got, want) {
				t.Fatalf("scen %d step %d: taxon %d AllowedBranches = %v, oracle %v (agile %s)",
					scen, step, x, got, want, tr.Agile().Newick())
			}
			if c := tr.CountAllowedBranches(x); c != len(want) {
				t.Fatalf("CountAllowedBranches = %d, want %d", c, len(want))
			}
			if len(got) == 0 {
				continue
			}
			// Verify extend+remove restores the exact state.
			sig := tr.Signature()
			e := got[rng.Intn(len(got))]
			tr.ExtendTaxon(x, e)
			if err := tr.Agile().Validate(); err != nil {
				t.Fatalf("scen %d step %d: %v", scen, step, err)
			}
			tr.RemoveTaxon()
			if tr.Signature() != sig {
				t.Fatalf("scen %d step %d: extend+remove did not restore state", scen, step)
			}
			tr.ExtendTaxon(x, e)
		}
	}
}

func TestReplayDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for scen := 0; scen < 10; scen++ {
		n := 10 + rng.Intn(8)
		_, cons := randomScenario(rng, n, 3, 4, 0.65)
		tr1, err := New(cons, 0)
		if err != nil {
			t.Fatal(err)
		}
		type step struct {
			taxon int
			edge  int32
		}
		var path []step
		for _, x := range tr1.MissingTaxa() {
			br := tr1.AllowedBranches(x)
			if len(br) == 0 {
				break
			}
			e := br[rng.Intn(len(br))]
			tr1.ExtendTaxon(x, e)
			path = append(path, step{x, e})
		}
		// Fresh instance, replay, compare full signatures.
		tr2, err := New(cons, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range path {
			tr2.ExtendTaxon(s.taxon, s.edge)
		}
		if tr1.Signature() != tr2.Signature() {
			t.Fatalf("scen %d: replay diverged", scen)
		}
		// Rewind tr1 fully and verify it matches a fresh instance.
		for tr1.Depth() > 0 {
			tr1.RemoveTaxon()
		}
		tr3, _ := New(cons, 0)
		if tr1.Signature() != tr3.Signature() {
			t.Fatalf("scen %d: full rewind != fresh state", scen)
		}
	}
}

func TestCompleteInsertionDisplaysAllConstraints(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for scen := 0; scen < 10; scen++ {
		n := 9 + rng.Intn(8)
		_, cons := randomScenario(rng, n, 3, 5, 0.75)
		tr, err := New(cons, 0)
		if err != nil {
			t.Fatal(err)
		}
		ok := true
		for _, x := range tr.MissingTaxa() {
			br := tr.AllowedBranches(x)
			if len(br) == 0 {
				ok = false
				break
			}
			tr.ExtendTaxon(x, br[0])
		}
		if !ok {
			continue // hit a dead end on this greedy path; fine
		}
		if !tr.Complete() {
			t.Fatal("not complete after inserting all missing taxa")
		}
		for i := 0; i < tr.NumConstraints(); i++ {
			c := tr.Constraint(i)
			r := tr.Agile().Restrict(c.LeafSet())
			if !r.SameTopology(c) {
				t.Fatalf("scen %d: complete tree does not display constraint %d", scen, i)
			}
		}
	}
}

func TestMissingTaxaList(t *testing.T) {
	taxa := tree.MustTaxa([]string{"A", "B", "C", "D", "E", "F"})
	c1 := tree.MustParse("((A,B),(C,D));", taxa)
	c2 := tree.MustParse("((C,D),(E,F));", taxa)
	tr, err := New([]*tree.Tree{c1, c2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	miss := tr.MissingTaxa()
	if len(miss) != 2 || miss[0] != 4 || miss[1] != 5 {
		t.Fatalf("missing = %v, want [4 5]", miss)
	}
	if tr.InitialIndex() != 0 {
		t.Fatal("InitialIndex wrong")
	}
}
