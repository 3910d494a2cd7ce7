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
// edges, through a derived base, and the tree without three of them through a
// base derived from a derived one, each base equal to the walk of its tree
// (checkDerived), the lowest leaf among those removed too, which roots the
// rendering anew as it comes back — the labels here are whatever the fuzzer
// quotes: commas, parentheses, quotes, newlines.
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
		// What the two byte counts that size a tree could miscount, and the
		// outermost group taken for a vertex until it closes on two.
		"(('x,y','(z)'),('p''q',r),s);",
		"(('a(',b),('c)',d));",
		"((''''',a),'(,)',(b,'c''''d'));",
		"((A:1e-5,B:2.5E+3)x:1e2,(C:.5,D:-1)'y z':3e0);",
		" ( ( A , B ) i1 : 1 ,\tC ,\r\nD ) ; ",
		"((A,B),C);",
		"(A,(B,C));",
		"(((A,B),C),(D,E),F);",
		"((a,b)),c);",
		"((a,b),c,d,e);",
		strings.Repeat("(", 120000) + "a;", // rejected by the nesting cap
		// A leaf's record once kept a child field from an earlier tree, so a
		// derived base and the walk of its tree differed in it.
		"((((A,B),C),D),(E,(F,G)));",
		// The lowest leaf deep in a caterpillar: removed with its neighbours
		// and put back, it roots the rendering anew along a long path.
		"(((((((a,b),c),d),e),f),g),h);",
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
			var re reroots
			t1.LeafSet().ForEach(func(x int) {
				rest := t1.LeafSet().Clone()
				rest.Remove(x)
				checkSplices(t, &w, &oracle, t1.Restrict(rest), x, &re)
			})
		}
		if n := t1.NumLeaves(); n >= 5 && n <= 16 {
			var w, oracle NewickWriter
			var re reroots
			leaves := t1.LeafSet()
			next := func(y int) int {
				if z := leaves.NextSetBit(y + 1); z >= 0 {
					return z
				}
				return leaves.Min()
			}
			leaves.ForEach(func(y int) {
				z, u := next(y), next(next(y))
				rest := leaves.Clone()
				rest.Remove(y)
				rest.Remove(z)
				base := t1.Restrict(rest)
				checkDerived(t, &w, &oracle, base, &re, y, z)
				checkDerived(t, &w, &oracle, base, &re, z, y)
				if n >= 6 && n <= 12 {
					rest.Remove(u)
					base := t1.Restrict(rest)
					checkDerived(t, &w, &oracle, base, &re, y, z, u)
					checkDerived(t, &w, &oracle, base, &re, u, y, z)
				}
			})
		}
	})
}
