package workflow

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"gentrius/internal/bitset"
	"gentrius/internal/search"
	"gentrius/internal/terrace"
	"gentrius/internal/tree"
)

func fig1aConstraints() ([]*tree.Tree, *tree.Taxa) {
	taxa := tree.MustTaxa([]string{"A", "B", "C", "D", "E", "F", "X", "Y"})
	return []*tree.Tree{
		tree.MustParse("((A,B),((C,D),(E,F)));", taxa),
		tree.MustParse("((A,X),(C,(E,F)));", taxa),
		tree.MustParse("((E,Y),(C,(A,B)));", taxa),
	}, taxa
}

func TestRecordMatchesSearchCounters(t *testing.T) {
	cons, taxa := fig1aConstraints()
	res, err := search.Run(cons, search.Options{InitialTree: 0})
	if err != nil {
		t.Fatal(err)
	}
	root, err := Record(cons, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if int64(root.Trees) != res.StandTrees {
		t.Fatalf("workflow trees %d, search %d", root.Trees, res.StandTrees)
	}
	if int64(root.DeadEnds) != res.DeadEnds {
		t.Fatalf("workflow dead ends %d, search %d", root.DeadEnds, res.DeadEnds)
	}
	ascii := root.RenderASCII(taxa)
	if !strings.Contains(ascii, "I0") || !strings.Contains(ascii, "*") {
		t.Fatalf("ASCII rendering incomplete:\n%s", ascii)
	}
	dot := root.RenderDOT(taxa)
	if !strings.Contains(dot, "digraph workflow") || !strings.Contains(dot, "doublecircle") {
		t.Fatalf("DOT rendering incomplete:\n%s", dot)
	}
	// Every complete node carries its stand tree.
	var walk func(n *Node)
	trees := 0
	walk = func(n *Node) {
		if n.Complete {
			trees++
			if !strings.HasSuffix(n.Newick, ";") {
				t.Fatalf("complete node without Newick: %+v", n)
			}
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(root)
	if trees != root.Trees {
		t.Fatalf("leaf count %d != total %d", trees, root.Trees)
	}
}

// insertAll is Record's oracle: the workflow tree of the machine that inserts
// every taxon, the last two included, and renders each stand tree from the
// agile tree that holds it — taxa chosen by the paper's min-branches rule.
func insertAll(tr *terrace.Terrace) *Node {
	next := func() int {
		best, bestCount := -1, -1
		for _, x := range tr.MissingTaxa() {
			if tr.Agile().HasTaxon(x) {
				continue
			}
			if n := tr.CountAllowedBranches(x); n == 0 {
				return x
			} else if best == -1 || n < bestCount {
				best, bestCount = x, n
			}
		}
		return best
	}
	var explore func(n *Node)
	explore = func(n *Node) {
		x := next()
		for _, e := range tr.AllowedBranches(x) {
			tr.ExtendTaxon(x, e)
			c := &Node{Taxon: x, Edge: e}
			switch {
			case tr.Complete():
				c.Complete, c.Newick = true, tr.Agile().Newick()
			case len(tr.AllowedBranches(next())) == 0:
				c.DeadEnd = true
			default:
				explore(c)
			}
			n.Children = append(n.Children, c)
			tr.RemoveTaxon()
		}
	}
	root := &Node{Taxon: -1, Edge: -1}
	explore(root)
	fill(root)
	return root
}

func TestRecordRandomAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(4321))
	taxaNames := func(n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = string(rune('a'+i%26)) + string(rune('0'+i/26))
		}
		return out
	}
	for scen := 0; scen < 6; scen++ {
		n := 8 + rng.Intn(4)
		taxa := tree.MustTaxa(taxaNames(n))
		tr := tree.New(taxa)
		perm := rng.Perm(n)
		tr.AddFirstLeaf(perm[0])
		tr.AddSecondLeaf(perm[1])
		for _, x := range perm[2:] {
			tr.AttachLeaf(x, int32(rng.Intn(tr.NumEdges())))
		}
		cols := make([]*bitset.Set, 2)
		for {
			cover := bitset.New(n)
			for j := range cols {
				c := bitset.New(n)
				for i := 0; i < n; i++ {
					if rng.Float64() < 0.7 {
						c.Add(i)
					}
				}
				cols[j] = c
				cover.UnionWith(c)
			}
			if cover.Count() == n && cols[0].Count() >= 4 && cols[1].Count() >= 4 {
				break
			}
		}
		cons := []*tree.Tree{tr.Restrict(cols[0]), tr.Restrict(cols[1])}
		res, err := search.Run(cons, search.Options{InitialTree: -1})
		if err != nil {
			t.Fatal(err)
		}
		if res.IntermediateStates > 5000 {
			continue
		}
		root, err := Record(cons, -1, 20000)
		if err != nil {
			t.Fatal(err)
		}
		if int64(root.Trees) != res.StandTrees || int64(root.DeadEnds) != res.DeadEnds {
			t.Fatalf("scen %d: workflow (%d trees, %d dead) vs search (%d, %d)",
				scen, root.Trees, root.DeadEnds, res.StandTrees, res.DeadEnds)
		}
	}
}

// TestRecordMatchesInsertion: the engine Record drives answers most branches
// of the second-to-last taxon without inserting it (EvLookAhead), and the
// workflow tree it records is still the inserting machine's, node for node:
// the same insertions, edge ids, dead ends, and stand trees in order.
func TestRecordMatchesInsertion(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	looked := int64(0)
	for scen := 0; scen < 40; scen++ {
		taxa := tree.MustTaxa([]string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j"})
		truth := tree.New(taxa)
		perm := rng.Perm(taxa.Len())
		truth.AddFirstLeaf(perm[0])
		truth.AddSecondLeaf(perm[1])
		for _, x := range perm[2:] {
			truth.AttachLeaf(x, int32(rng.Intn(truth.NumEdges())))
		}
		var cons []*tree.Tree
		for cover := bitset.New(taxa.Len()); len(cons) < 3 || cover.Count() < taxa.Len(); {
			c := bitset.New(taxa.Len())
			for _, x := range rng.Perm(taxa.Len())[:5+rng.Intn(4)] {
				c.Add(x)
			}
			cover.UnionWith(c)
			cons = append(cons, truth.Restrict(c))
		}
		got, err := Record(cons, 0, 20000)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := terrace.New(cons, 0)
		if err != nil {
			t.Fatal(err)
		}
		// The engine Record drives, from the initial tree, run to its end.
		eng := search.NewEngine(tr.Clone())
		for eng.Step() != search.EvDone {
		}
		looked += eng.Work().LookAheads
		if want := insertAll(tr); !reflect.DeepEqual(got, want) {
			t.Fatalf("scen %d: recorded\n%s\ninserting\n%s", scen, got.RenderASCII(taxa), want.RenderASCII(taxa))
		}
	}
	if looked < 50 {
		t.Fatalf("%d branches looked ahead of: not enough to mean anything", looked)
	}
}

func TestRecordCap(t *testing.T) {
	cons, _ := fig1aConstraints()
	if _, err := Record(cons, 0, 1); err == nil {
		t.Fatal("expected cap error")
	}
}
