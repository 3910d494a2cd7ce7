package tree

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// awkwardNames returns n distinct labels, every other one needing quotes,
// for four different reasons.
func awkwardNames(n int, tag string) []string {
	out := make([]string, n)
	for i := range out {
		switch i % 8 {
		case 1:
			out[i] = fmt.Sprintf("it's %s%d", tag, i)
		case 3:
			out[i] = fmt.Sprintf("sp (%s%d)", tag, i)
		case 5:
			out[i] = fmt.Sprintf("two\nlines%s%d", tag, i)
		case 7:
			out[i] = fmt.Sprintf("a b,c:%s;%d", tag, i)
		default:
			out[i] = fmt.Sprintf("%s%d", tag, i)
		}
	}
	return out
}

// randomSubsetTree attaches k random taxa of the universe at random edges.
func randomSubsetTree(taxa *Taxa, k int, rng *rand.Rand) *Tree {
	t := New(taxa)
	for i, x := range rng.Perm(taxa.Len())[:k] {
		switch i {
		case 0:
			t.AddFirstLeaf(x)
		case 1:
			t.AddSecondLeaf(x)
		default:
			t.AttachLeaf(x, int32(rng.Intn(t.NumEdges())))
		}
	}
	return t
}

// TestNewickWriterMatchesReference is the differential test: one writer,
// reused across trees of every size from 0 to 200 leaves over three
// universes, must reproduce the retained recursive renderer byte for byte.
func TestNewickWriterMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	universes := []*Taxa{
		MustTaxa(awkwardNames(200, "x")),
		MustTaxa(awkwardNames(200, "y")),
		MustTaxa(names(60)),
	}
	var w NewickWriter
	var buf []byte
	for it := 0; it < 2400; it++ {
		taxa := universes[rng.Intn(len(universes))]
		k := rng.Intn(taxa.Len() + 1)
		if it < 12 {
			k = it % 4 // the tiny shapes first, three times each
		}
		tr := randomSubsetTree(taxa, k, rng)
		want := referenceNewick(tr)
		if got := w.String(tr); got != want {
			t.Fatalf("iteration %d (%d leaves): String\n got %q\nwant %q", it, k, got, want)
		}
		buf = w.Append(append(buf[:0], "x="...), tr)
		if got := string(buf); got != "x="+want {
			t.Fatalf("iteration %d (%d leaves): Append\n got %q\nwant %q", it, k, got, "x="+want)
		}
		if got := tr.Newick(); got != want {
			t.Fatalf("iteration %d (%d leaves): Newick\n got %q\nwant %q", it, k, got, want)
		}
	}
}

// TestNewickWriterGrowingUniverse: labels registered after the writer first
// saw the universe are rendered, and quoted, like the others.
func TestNewickWriterGrowingUniverse(t *testing.T) {
	taxa := MustTaxa([]string{"A", "B", "C"})
	var w NewickWriter
	if got := w.String(MustParse("(A,B,C);", taxa)); got != "(A,B,C);" {
		t.Fatal(got)
	}
	tr, err := Parse("((A,'late one'),B,C);", taxa, true)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := w.String(tr), referenceNewick(tr); got != want {
		t.Fatalf("got %q, want %q", got, want)
	}
}

// TestNewickWriterAllocs pins the allocation contract: rendering into a
// buffer that is large enough allocates nothing, String allocates the string
// it returns, and the one-shot Newick stays within four.
func TestNewickWriterAllocs(t *testing.T) {
	taxa := MustTaxa(awkwardNames(129, "t"))
	tr := randomTree(taxa, rand.New(rand.NewSource(3)))
	var w NewickWriter
	buf := w.Append(nil, tr)
	if n := testing.AllocsPerRun(200, func() { buf = w.Append(buf[:0], tr) }); n != 0 {
		t.Errorf("Append into a warm buffer: %v allocs, want 0", n)
	}
	var s string
	if n := testing.AllocsPerRun(200, func() { s = w.String(tr) }); n != 1 {
		t.Errorf("String: %v allocs, want 1", n)
	}
	if n := testing.AllocsPerRun(200, func() { s = tr.Newick() }); n > 4 && !raceEnabled {
		t.Errorf("Newick: %v allocs, want <= 4", n)
	}
	if s != string(buf) {
		t.Fatal("String/Newick and Append disagree")
	}
}

// caterpillar builds the n-leaf tree whose every AttachLeaf subdivides the
// previous leaf's pendant edge: n-2 nesting levels in canonical form.
func caterpillar(n int) *Tree {
	nm := make([]string, n)
	for i := range nm {
		nm[i] = fmt.Sprintf("t%d", i)
	}
	t := New(MustTaxa(nm))
	t.AddFirstLeaf(0)
	t.AddSecondLeaf(1)
	pendant := int32(0)
	for x := 2; x < n; x++ {
		_, _, pendant = t.AttachLeaf(x, pendant)
	}
	return t
}

// TestNewickWriterDeepTree: a 50 000-level caterpillar renders without
// recursion, in time linear in its size, and its output reparses to the same
// canonical string.
func TestNewickWriterDeepTree(t *testing.T) {
	small, big := caterpillar(5000), caterpillar(50000)
	var w NewickWriter
	floor := func(tr *Tree) time.Duration {
		best := time.Duration(1 << 62)
		for i := 0; i < 7; i++ {
			start := time.Now()
			w.String(tr)
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best
	}
	ds, db := floor(small), floor(big)
	t.Logf("5 000 leaves %v, 50 000 leaves %v, ratio %.1f", ds, db, float64(db)/float64(ds))
	if float64(db) >= 25*float64(ds) {
		t.Errorf("10x the leaves took %.1fx the time (%v -> %v): not linear", float64(db)/float64(ds), ds, db)
	}
	nw := w.String(big)
	if len(nw) < 50000*3 || nw[:8] != "(t0,t1,(" {
		t.Fatalf("unexpected rendering: %d bytes, starts %q", len(nw), nw[:8])
	}
	back, err := Parse(nw, big.Taxa(), false)
	if err != nil {
		t.Fatal(err)
	}
	if got := w.String(back); got != nw {
		t.Fatal("the rendering of a 50 000-leaf caterpillar is not a fixed point of parse-then-render")
	}
}

// TestNewickWriterFollowsAttachDetach drives a writer the way the engine
// does — the same tree mutated by AttachLeaf/DetachLeaf between String
// calls — and checks each rendering against a fresh writer.
func TestNewickWriterFollowsAttachDetach(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	taxa := MustTaxa(awkwardNames(40, "q"))
	tr := randomSubsetTree(taxa, 3, rng)
	var held NewickWriter
	var attached []int
	for step := 0; step < 600; step++ {
		if len(attached) == 0 || (tr.NumLeaves() < taxa.Len() && rng.Intn(5) < 3) {
			x := rng.Intn(taxa.Len())
			for tr.HasTaxon(x) {
				x = (x + 1) % taxa.Len()
			}
			tr.AttachLeaf(x, int32(rng.Intn(tr.NumEdges())))
			attached = append(attached, x)
		} else {
			tr.DetachLeaf(attached[len(attached)-1])
			attached = attached[:len(attached)-1]
		}
		var fresh NewickWriter
		if got, want := held.String(tr), fresh.String(tr); got != want {
			t.Fatalf("step %d (%d leaves): held writer %q, fresh writer %q", step, tr.NumLeaves(), got, want)
		}
	}
}

// benchSink keeps the benchmarked calls from being optimised away.
var benchSink int

func BenchmarkNewickWriter(b *testing.B) {
	taxa := MustTaxa(names(129))
	tr := randomTree(taxa, rand.New(rand.NewSource(1)))
	b.Run("String", func(b *testing.B) {
		var w NewickWriter
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchSink += len(w.String(tr))
		}
	})
	b.Run("Newick", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchSink += len(tr.Newick())
		}
	})
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchSink += len(referenceNewick(tr))
		}
	})
}

// checkSplices compares, for every edge of base, the tree AppendWith cuts from
// base's rendering with the tree that has x attached there, rendered by the
// two-pass walk. It reports whether the writer took the base at all, and how
// many of the edges were the lowest leaf's.
func checkSplices(t *testing.T, w, oracle *NewickWriter, base *Tree, x int) (ok bool, lowest int) {
	t.Helper()
	lo := base.LeafSet().Min()
	ok = w.SetBase(base, x)
	if ok != (base.NumLeaves() >= 3 && x > lo) {
		t.Fatalf("SetBase(%d leaves, x=%d, lowest %d) = %v", base.NumLeaves(), x, lo, ok)
	}
	if !ok {
		return false, 0
	}
	var got, want []byte
	for e := int32(0); e < int32(base.NumEdges()); e++ {
		got = w.AppendWith(append(got[:0], '>'), e)
		if a, b := base.EdgeEndpoints(e); base.NodeTaxon(a) == int32(lo) || base.NodeTaxon(b) == int32(lo) {
			lowest++
		}
		base.AttachLeaf(x, e)
		want = oracle.Append(append(want[:0], '>'), base)
		base.DetachLeaf(x)
		if string(got) != string(want) {
			t.Fatalf("%d leaves, x=%d on edge %d of %s\n got %s\nwant %s", base.NumLeaves(), x, e, base.Newick(), got, want)
		}
	}
	return true, lowest
}

// TestAppendWithMatchesAppend is the splice oracle: for trees of 3 to 40
// leaves over awkward labels, every absent taxon on every edge, the tree cut
// from the base equals the tree attached and rendered — and all three shapes
// (new leaf second in its pair, pair risen along the path, lowest leaf's
// edge), the 3-leaf base and the refusals are met.
func TestAppendWithMatchesAppend(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	universes := []*Taxa{MustTaxa(awkwardNames(48, "s")), MustTaxa(names(24))}
	var w, oracle NewickWriter
	var refused, lowest, three int
	for it := 0; it < 300; it++ {
		taxa := universes[it%2]
		k := min(3+rng.Intn(38), taxa.Len()-1)
		if it < 6 {
			k = 3
		}
		tr := randomSubsetTree(taxa, k, rng)
		for x := 0; x < taxa.Len(); x++ {
			if tr.HasTaxon(x) {
				continue
			}
			ok, low := checkSplices(t, &w, &oracle, tr, x)
			if lowest += low; !ok {
				refused++
			} else if k == 3 {
				three++
			}
		}
	}
	if s := w.Stats; s.Spliced == 0 || s.Recut == 0 || refused == 0 || lowest == 0 || three == 0 {
		t.Fatalf("shapes not all met: %+v, %d refused, %d on the lowest leaf's edge, %d on a 3-leaf base", s, refused, lowest, three)
	}
	if ok, _ := checkSplices(t, &w, &oracle, MustParse("(A,B);", MustTaxa([]string{"A", "B", "C"})), 2); ok {
		t.Fatal("SetBase accepted a 2-leaf base")
	}
}

// checkDerived compares, for every edge e of base, the base Derive makes of
// base's rendering with y on e against the walk of the tree that has y attached
// there — bytes and every node's record — and then, for every edge of that
// tree, the tree AppendWith cuts from the derived base with the tree that has
// z attached there too, rendered by the two-pass walk. It reports whether the
// writer took the pair of leaves at all.
func checkDerived(t *testing.T, w, oracle *NewickWriter, base *Tree, y, z int) bool {
	t.Helper()
	lo := base.LeafSet().Min()
	if !w.SetBase(base, y) {
		return false
	}
	var got, want []byte
	for e := int32(0); e < int32(base.NumEdges()); e++ {
		ok := w.Derive(e, z)
		if ok != (z > lo) {
			t.Fatalf("Derive(%d, z=%d) on a base whose lowest leaf is %d = %v", e, z, lo, ok)
		}
		if !ok {
			return false
		}
		base.AttachLeaf(y, e)
		want = oracle.Append(want[:0], base)
		d := &w.derived
		if string(d.out) != string(want) {
			base.DetachLeaf(y)
			t.Fatalf("%s with %d on edge %d\n got %s\nwant %s", base.Newick(), y, e, d.out, want)
		}
		l := base.LeafNode(lo)
		for v := int32(0); v < int32(base.NumNodes()); v++ {
			if v != l && d.sc[v] != oracle.sc[v] {
				base.DetachLeaf(y)
				t.Fatalf("%s with %d on edge %d: node %d derived %+v, walked %+v", base.Newick(), y, e, v, d.sc[v], oracle.sc[v])
			}
		}
		for f := int32(0); f < int32(base.NumEdges()); f++ {
			got = w.AppendWith(append(got[:0], '>'), f)
			base.AttachLeaf(z, f)
			want = oracle.Append(append(want[:0], '>'), base)
			base.DetachLeaf(z)
			if string(got) != string(want) {
				s := base.Newick()
				base.DetachLeaf(y)
				t.Fatalf("%s, %d on edge %d, then %d on edge %d\n got %s\nwant %s", s, y, e, z, f, got, want)
			}
		}
		base.DetachLeaf(y)
	}
	return true
}

// TestDeriveMatchesAppend is the derived-base oracle: for trees of 3 to 30
// leaves over awkward labels, every ordered pair of absent taxa, the first on
// every edge and the second on every edge of the result, the base derived
// without a walk equals the walk's, record by record, and every tree cut from
// it equals the tree attached and rendered — and the pair rising to the root,
// the lowest leaf's edge and the refusal of a second leaf that sorts first are
// all met.
func TestDeriveMatchesAppend(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	universes := []*Taxa{MustTaxa(awkwardNames(36, "d")), MustTaxa(names(20))}
	var w, oracle NewickWriter
	var refused, taken, rose int
	for it := 0; it < 60; it++ {
		taxa := universes[it%2]
		k := min(3+rng.Intn(28), taxa.Len()-2)
		if it < 4 {
			k = 3
		}
		tr := randomSubsetTree(taxa, k, rng)
		var absent []int
		for x := 0; x < taxa.Len(); x++ {
			if !tr.HasTaxon(x) {
				absent = append(absent, x)
			}
		}
		for i := 0; i < 6; i++ {
			y, z := absent[rng.Intn(len(absent))], absent[rng.Intn(len(absent))]
			if y == z {
				continue
			}
			if checkDerived(t, &w, &oracle, tr, y, z) {
				taken++
				if y < tr.LeafSet().NextSetBit(tr.LeafSet().Min()+1) {
					rose++ // on every edge but the lowest leaf's, up to the root
				}
			} else if y > tr.LeafSet().Min() {
				refused++
			}
		}
	}
	if s := w.Stats; taken < 100 || refused == 0 || rose == 0 || s.Derived == 0 || s.Spliced == 0 || s.Recut == 0 {
		t.Fatalf("%d pairs taken (%d rising to the root), %d refused, %+v", taken, rose, refused, s)
	}
}

// TestDeriveAllocs: deriving a base and cutting its trees from it allocates
// nothing once the writer has seen a tree of the size.
func TestDeriveAllocs(t *testing.T) {
	taxa := MustTaxa(awkwardNames(131, "a"))
	tr := randomSubsetTree(taxa, 129, rand.New(rand.NewSource(4)))
	var absent []int
	for x := 0; x < taxa.Len(); x++ {
		if !tr.HasTaxon(x) {
			absent = append(absent, x)
		}
	}
	var w NewickWriter
	var buf []byte
	run := func() {
		if !w.SetBase(tr, absent[0]) || !w.Derive(0, absent[1]) {
			t.Fatalf("absent taxa %v: refused", absent)
		}
		for e := int32(0); e < int32(tr.NumEdges()); e += 7 {
			w.Derive(e, absent[1])
			for f := int32(0); f < int32(tr.NumEdges()+2); f += 5 {
				buf = w.AppendWith(buf[:0], f)
			}
		}
	}
	run()
	if n := testing.AllocsPerRun(20, run); n != 0 {
		t.Errorf("SetBase, Derive and AppendWith: %v allocs, want 0", n)
	}
}
