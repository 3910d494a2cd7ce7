package tree

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
)

func TestParseBasicForms(t *testing.T) {
	cases := []struct {
		in     string
		leaves int
	}{
		{"A;", 1},
		{"(A,B);", 2},
		{"(A,B,C);", 3},
		{"((A,B),C);", 3},
		{"((A,B),(C,D));", 4},
		{"(A,(B,(C,D)),E);", 5},
		{"((A:0.1,B:0.2):0.05,(C,D)internal:1e-3);", 4},
		{"('sp. one','sp,two');", 2},
		{"( A , B ) ;", 2},
	}
	for _, c := range cases {
		taxa := new(Taxa)
		tr, err := Parse(c.in, taxa, true)
		if err != nil {
			t.Fatalf("%q: %v", c.in, err)
		}
		if tr.NumLeaves() != c.leaves {
			t.Fatalf("%q: %d leaves, want %d", c.in, tr.NumLeaves(), c.leaves)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("%q: %v", c.in, err)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",
		"(A,B)",          // missing ;
		"(A,B));",        // extra paren
		"((A,B);",        // unbalanced
		"(A,B,C,D);",     // outermost quartet polytomy
		"((A,B,C),D);",   // inner polytomy
		"(A,A);",         // duplicate taxon
		"(A,B); garbage", // trailing
		"(A,'B);",        // unterminated quote
		"(A,B):;",        // bad branch length
		"(,B);",          // empty label
	}
	for _, c := range cases {
		taxa := new(Taxa)
		if _, err := Parse(c, taxa, true); err == nil {
			t.Fatalf("%q: expected error", c)
		}
	}
}

func TestParseUnknownTaxonRejected(t *testing.T) {
	taxa := MustTaxa([]string{"A", "B"})
	if _, err := Parse("(A,(B,C));", taxa, false); err == nil {
		t.Fatal("expected unknown-taxon error")
	}
	if _, err := Parse("(A,(B,C));", taxa, true); err != nil {
		t.Fatal(err)
	}
}

func TestNewickRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for it := 0; it < 80; it++ {
		n := 3 + rng.Intn(40)
		taxa := MustTaxa(names(n))
		tr := randomTree(taxa, rng)
		nw := tr.Newick()
		back, err := Parse(nw, taxa, false)
		if err != nil {
			t.Fatalf("reparse %q: %v", nw, err)
		}
		if !back.SameTopology(tr) {
			t.Fatalf("round trip changed topology: %s", nw)
		}
		if back.Newick() != nw {
			t.Fatalf("canonical form unstable: %s vs %s", back.Newick(), nw)
		}
	}
}

func TestUnrootedEquivalentRootings(t *testing.T) {
	// All rooted renderings of the same unrooted tree parse to equal trees.
	taxa := MustTaxa([]string{"A", "B", "C", "D", "E"})
	forms := []string{
		"((A,B),(C,(D,E)));",
		"(A,(B,(C,(D,E))));",
		"(((A,B),C),(D,E));",
		"(E,(D,(C,(A,B))));",
		"((A,B),C,(D,E));",
	}
	ref := MustParse(forms[0], taxa)
	for _, f := range forms[1:] {
		tr := MustParse(f, taxa)
		if !tr.SameTopology(ref) {
			t.Fatalf("%q parsed to different topology", f)
		}
		if tr.Newick() != ref.Newick() {
			t.Fatalf("%q canonical form %s != %s", f, tr.Newick(), ref.Newick())
		}
	}
}

func TestNewickTinyTrees(t *testing.T) {
	taxa := MustTaxa([]string{"A", "B"})
	tr := New(taxa)
	if got := tr.Newick(); got != ";" {
		t.Fatalf("empty tree Newick = %q", got)
	}
	tr.AddFirstLeaf(0)
	if got := tr.Newick(); got != "A;" {
		t.Fatalf("one-leaf Newick = %q", got)
	}
	tr.AddSecondLeaf(1)
	if got := tr.Newick(); got != "(A,B);" {
		t.Fatalf("two-leaf Newick = %q", got)
	}
}

func TestQuotedNamesRoundTrip(t *testing.T) {
	taxa := MustTaxa([]string{"A", "B"})
	tr, err := Parse("('Homo sapiens',(A,B));", taxa, true)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tr.Newick(), "Homo sapiens") {
		t.Fatalf("quoted name lost: %s", tr.Newick())
	}
}

// randomNewick renders a random binary shape over labels (in that order,
// shuffled by the caller): rooted or, from three leaves up, with a
// trifurcation outermost, sprinkled with what the grammar lets through and
// the builder discards — spaces, branch lengths, internal labels.
func randomNewick(rng *rand.Rand, labels []string) string {
	deco := func(s string) string {
		if rng.Intn(4) == 0 {
			s += []string{":1", ":0.25", ":1e-3", " :2.5"}[rng.Intn(4)]
		}
		if rng.Intn(6) == 0 {
			s = " " + s + "\t"
		}
		return s
	}
	var render func(ls []string) string
	render = func(ls []string) string {
		if len(ls) == 1 {
			return deco(quoteIfNeeded(ls[0]))
		}
		cut := 1 + rng.Intn(len(ls)-1)
		s := "(" + render(ls[:cut]) + "," + render(ls[cut:]) + ")"
		if rng.Intn(5) == 0 {
			s += []string{"n1", "'in, (ner'", "0.98"}[rng.Intn(3)]
		}
		return deco(s)
	}
	if len(labels) >= 3 && rng.Intn(2) == 0 {
		a := 1 + rng.Intn(len(labels)-2)
		b := a + 1 + rng.Intn(len(labels)-a-1)
		return "(" + render(labels[:a]) + "," + render(labels[a:b]) + "," + render(labels[b:]) + ");"
	}
	return render(labels) + ";"
}

// The reader against the two-pass routine it replaced, on collections whose
// later trees bring taxa the earlier ones were parsed without.
func TestReaderMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	pool := append(names(30), "sp. one", "it's", "a,b", "(x)", "semi;colon", "new\nline", "co:lon")
	for it := 0; it < 300; it++ {
		lines := make([]string, 1+rng.Intn(6))
		for i := range lines {
			rng.Shuffle(len(pool), func(a, b int) { pool[a], pool[b] = pool[b], pool[a] })
			lines[i] = randomNewick(rng, pool[:1+rng.Intn(len(pool))])
		}
		want, wantTaxa, err := referenceReadLines(lines)
		if err != nil {
			t.Fatalf("reference rejects %q: %v", lines, err)
		}
		rd := NewReader(nil, true)
		for _, l := range lines {
			if err := rd.Add([]byte(l)); err != nil {
				t.Fatalf("%q: %v", l, err)
			}
		}
		got, taxa, err := rd.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(taxa.names, wantTaxa.names) {
			t.Fatalf("%q: taxa %q, want %q", lines, taxa.names, wantTaxa.names)
		}
		for i := range want {
			if err := sameStructure(got[i], want[i]); err != nil {
				t.Fatalf("tree %d of %q: %v", i, lines, err)
			}
		}
	}
}

func TestReaderLines(t *testing.T) {
	rd := NewReader(nil, true)
	for _, l := range []string{"\xef\xbb\xbf(A,B);", "", "  # (A,A);", "\t((A,C),(B,D)); \r"} {
		if err := rd.Line([]byte(l)); err != nil {
			t.Fatal(err)
		}
	}
	if err := rd.Line([]byte("(A,B),C;")); err == nil || !strings.HasPrefix(err.Error(), "line 5: newick:") {
		t.Fatalf("bad fifth line: got %v, want a line 5 error", err)
	}
	trees, taxa, err := rd.Finish()
	if err != nil || len(trees) != 2 || strings.Join(taxa.names, "") != "ABCD" {
		t.Fatalf("%d trees over %q, %v", len(trees), taxa.names, err)
	}
	for _, tr := range trees {
		if len(tr.leafOf) != 4 || tr.leaves.Len() != 4 {
			t.Fatalf("tree not fitted to the universe: leafOf %v", tr.leafOf)
		}
	}
	if _, _, err := NewReader(nil, true).Finish(); err == nil {
		t.Fatal("a collection of no trees was accepted")
	}
	// An element of ReadLines is a tree, whatever bytes its labels hold.
	if _, err := ReadLines([]string{"('new\nline',B);", "(B,C);"}); err != nil {
		t.Fatal(err)
	}
}
