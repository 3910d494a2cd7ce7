package tree

import (
	"slices"
	"strings"
	"testing"
)

// FuzzNewickParse checks that Parse never panics or hangs, that it accepts
// and rejects exactly what the reference parser does and builds the same
// tree (node ids, edge ids, adjacency order, leafOf, leaf set, taxon ids), a
// valid one (Parse does not run Validate: the tree is valid by construction),
// and that any accepted input round-trips: the canonical Newick() rendering
// must equal the reference renderer's, must reparse to a tree with the same
// leaf count and must be a fixed point of parse-then-render; and that the tree
// without any one of its leaves, taken as a base, yields every tree with that
// leaf back as the two-pass walk renders it (checkSplices), and the tree
// without two of its leaves yields every tree with both back, on every pair of
// edges, through a derived base (checkDerived) — the labels here are whatever
// the fuzzer quotes: commas, parentheses, quotes, newlines.
func FuzzNewickParse(f *testing.F) {
	for _, s := range []string{
		"A;",
		"(A,B);",
		"(A,B,C);",
		"((A,B),(C,D));",
		"(((A,B),C),D,E);",
		"(a,(b,(c,(d,(e,f)))));",
		"((((((((a,b),c),d),e),f),g),h),i,j);",
		"('a b','c''d',(x,'y:z'));",
		"('a\nb',c,d);",
		"(('a,b','(c'),('d)','e''f'),g,('h;i',j));",
		"(A:1.5,(B:2e-3,C):0.1,D);",
		"(A,B)label:3;",
		"( \t a ,\nb\r, c );",
		"('',A,B);",
		"((A,B),(A,C),D);",
		"(a'b,c,d);",
		"(a,b)'x,y',c;",
		"((a,b)'l(',(c,d));",
		"(a,b)(c,d,e);",
		"(a,(b,c,d));",
		"((a),b);",
		"(a,b,c,d);",
		strings.Repeat("(a,", 30) + "b" + strings.Repeat(")", 30) + ";",
		strings.Repeat("(", 120000) + "a;", // rejected by the nesting cap
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		taxa, refTaxa := MustTaxa(nil), MustTaxa(nil)
		t1, err := Parse(in, taxa, true)
		want, refErr := referenceParse(in, refTaxa, true)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("%q: Parse says %v, the reference parser %v", in, err, refErr)
		}
		if err != nil {
			return
		}
		if !slices.Equal(taxa.names, refTaxa.names) {
			t.Fatalf("%q registers %q, the reference parser %q", in, taxa.names, refTaxa.names)
		}
		if err := sameStructure(t1, want); err != nil {
			t.Fatalf("%q: %v", in, err)
		}
		if err := t1.Validate(); err != nil {
			t.Fatalf("%q: the parser built an invalid tree: %v", in, err)
		}
		out := t1.Newick()
		if ref := referenceNewick(t1); out != ref {
			t.Fatalf("writer renders %q as %q, reference renderer as %q", in, out, ref)
		}
		t2, err := Parse(out, taxa, false)
		if err != nil {
			t.Fatalf("canonical rendering %q of %q does not reparse: %v", out, in, err)
		}
		if got, want := t2.NumLeaves(), t1.NumLeaves(); got != want {
			t.Fatalf("reparse of %q has %d leaves, want %d", out, got, want)
		}
		if got := t2.Newick(); got != out {
			t.Fatalf("canonical form is not a fixed point: %q renders as %q", out, got)
		}
		if n := t1.NumLeaves(); n >= 3 && n <= 24 {
			var w, oracle NewickWriter
			t1.LeafSet().ForEach(func(x int) {
				rest := t1.LeafSet().Clone()
				rest.Remove(x)
				checkSplices(t, &w, &oracle, t1.Restrict(rest), x)
			})
		}
		if n := t1.NumLeaves(); n >= 5 && n <= 16 {
			var w, oracle NewickWriter
			leaves := t1.LeafSet()
			leaves.ForEach(func(y int) {
				z := leaves.NextSetBit(y + 1)
				if z < 0 {
					z = leaves.Min()
				}
				rest := leaves.Clone()
				rest.Remove(y)
				rest.Remove(z)
				base := t1.Restrict(rest)
				checkDerived(t, &w, &oracle, base, y, z)
				checkDerived(t, &w, &oracle, base, z, y)
			})
		}
	})
}
