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

// reroots counts the cuts and derivations of a taxon that sorts before every
// leaf of its base, by the edge it went on: the lowest leaf's, another edge of
// the root, or a deeper one.
type reroots [3]int

// note counts x on edge e of w's top base, if x sorts before every leaf.
func (r *reroots) note(w *NewickWriter, x int, e int32) {
	b := &w.bases[len(w.bases)-1]
	if int32(x) > b.lo {
		return
	}
	n := 0
	for v := w.lower(e); v != b.root && n < 2; v = w.rec[v].up {
		n++
	}
	r[n]++
}

// each reports whether every kind of edge was met.
func (r *reroots) each() bool { return r[0] > 0 && r[1] > 0 && r[2] > 0 }

// checkSplices compares, for every edge of base, the tree AppendWith cuts from
// base's rendering with the tree that has x attached there, rendered by the
// two-pass walk. It reports whether the writer took the base at all, and how
// many of the edges were the lowest leaf's; re notes the cuts of an x that
// sorts before every leaf.
func checkSplices(t *testing.T, w, oracle *NewickWriter, base *Tree, x int, re *reroots) (ok bool, lowest int) {
	t.Helper()
	lo := base.LeafSet().Min()
	if ok = w.SetBase(base); ok != (base.NumLeaves() >= 3) {
		t.Fatalf("SetBase(%d leaves): took %v", base.NumLeaves(), ok)
	}
	if !ok {
		return false, 0
	}
	var got, want []byte
	for e := int32(0); e < int32(base.NumEdges()); e++ {
		re.note(w, x, e)
		got = w.AppendWith(append(got[:0], '>'), x, e)
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
// from the base equals the tree attached and rendered — and all four shapes
// (new leaf second in its pair, pair risen along the path, lowest leaf's
// edge, and a taxon that sorts before every leaf, which roots the tree anew,
// on the lowest leaf's edge, another edge of the root and a deeper one) and
// the 3-leaf base are met.
func TestAppendWithMatchesAppend(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	universes := []*Taxa{MustTaxa(awkwardNames(48, "s")), MustTaxa(names(24))}
	var w, oracle NewickWriter
	var re reroots
	var lowest, three int
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
			_, low := checkSplices(t, &w, &oracle, tr, x, &re)
			if lowest += low; k == 3 {
				three++
			}
		}
	}
	if s := w.Stats; s.Spliced == 0 || s.Recut == 0 || !re.each() || lowest == 0 || three == 0 {
		t.Fatalf("shapes not all met: %+v, re-roots %v, %d on the lowest leaf's edge, %d on a 3-leaf base", s, re, lowest, three)
	}
	if ok, _ := checkSplices(t, &w, &oracle, MustParse("(A,B);", MustTaxa([]string{"A", "B", "C"})), 2, &re); ok || w.Bases() != 0 {
		t.Fatal("SetBase accepted a 2-leaf base")
	}
}

// checkBase compares the writer's top base with the walk of tr, the
// tree it stands for: the bytes, the record of every node — of the lowest
// leaf, the root's parent, which the records do not describe, only that it
// has none — and both ends the writer keeps of every edge, and the lower one
// it finds.
func checkBase(w, oracle *NewickWriter, tr *Tree) error {
	if !oracle.SetBase(tr) {
		return fmt.Errorf("%s: the walk took no base", tr.Newick())
	}
	b, o := &w.bases[len(w.bases)-1], &oracle.bases[0]
	if string(b.out) != string(o.out) {
		return fmt.Errorf("base %s, walk %s", b.out, o.out)
	}
	if b.root != o.root || b.lo != o.lo || b.nodes != o.nodes || b.edges != o.edges {
		return fmt.Errorf("%s: base %+v, walk %+v", o.out, *b, *o)
	}
	l := tr.LeafNode(int(b.lo))
	for v := int32(0); v < b.nodes; v++ {
		if v != l && w.rec[v] != oracle.rec[v] || v == l && w.rec[v].up != NoNode {
			return fmt.Errorf("%s: node %d derived %+v, walked %+v", o.out, v, w.rec[v], oracle.rec[v])
		}
	}
	for e := int32(0); e < b.edges; e++ {
		if w.ends[e] != oracle.ends[e] || w.lower(e) != oracle.lower(e) {
			return fmt.Errorf("%s: edge %d derived ends %v, lower %d, walked %v, %d", o.out, e, w.ends[e], w.lower(e), oracle.ends[e], oracle.lower(e))
		}
	}
	return nil
}

// checkDerived walks base and checks the chain of derivations add names on
// it (checkChain).
func checkDerived(t *testing.T, w, oracle *NewickWriter, base *Tree, re *reroots, add ...int) {
	t.Helper()
	if !w.SetBase(base) {
		t.Fatalf("%s: no base", base.Newick())
	}
	checkChain(t, w, oracle, base, add, 1, re)
}

// checkChain takes the writer's top base, the rendering of tr, and: with one
// taxon in add, compares the tree AppendWith cuts with it on each edge with
// the tree that has it attached there, rendered by the two-pass walk; with
// more, derives the base with add[0] on each edge — every stride-th past the
// first derivation — goes on with the rest of add from there, compares it
// with the walk of its tree, bytes and records, and pops it, after which the
// base below must be the walk of tr again. re notes the cuts and derivations
// of a taxon that sorts before every leaf.
func checkChain(t *testing.T, w, oracle *NewickWriter, tr *Tree, add []int, stride int32, re *reroots) {
	t.Helper()
	x := add[0]
	if len(add) == 1 {
		var got, want []byte
		for e := int32(0); e < int32(tr.NumEdges()); e++ {
			re.note(w, x, e)
			got = w.AppendWith(append(got[:0], '>'), x, e)
			tr.AttachLeaf(x, e)
			want = oracle.Append(append(want[:0], '>'), tr)
			tr.DetachLeaf(x)
			if string(got) != string(want) {
				t.Fatalf("%s, %d on edge %d\n got %s\nwant %s", tr.Newick(), x, e, got, want)
			}
		}
		return
	}
	for e := int32(0); e < int32(tr.NumEdges()); e += stride {
		re.note(w, x, e)
		w.Derive(x, e)
		// Cuts from the base, or bases derived from it, come first, and then
		// it is compared.
		tr.AttachLeaf(x, e)
		checkChain(t, w, oracle, tr, add[1:], 1+int32(tr.NumEdges())/8, re)
		err := checkBase(w, oracle, tr)
		tr.DetachLeaf(x)
		w.Pop()
		if err == nil {
			err = checkBase(w, oracle, tr)
		}
		if err != nil {
			t.Fatalf("%s, %d on edge %d: %v", tr.Newick(), x, e, err)
		}
	}
}

// TestDeriveMatchesAppend is the derived-base oracle: for trees of 3 to 30
// leaves over awkward labels and pairs of absent taxa, the first on every
// edge and the second on every edge of the result, the base derived without a
// walk equals the walk's, record by record, every tree cut from it equals the
// tree attached and rendered, and the base below is the walk's again after a
// Pop; for triples, a second base derived from a derived one does too — and
// the pair rising to the root, the lowest leaf's edge and a taxon that sorts
// before every leaf, derived and cut on the lowest leaf's edge, another edge
// of the root and a deeper one, are all met.
func TestDeriveMatchesAppend(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	universes := []*Taxa{MustTaxa(awkwardNames(36, "d")), MustTaxa(names(20))}
	var w, oracle NewickWriter
	var re reroots
	var taken, rose, chains int
	for it := 0; it < 60; it++ {
		taxa := universes[it%2]
		k := min(3+rng.Intn(28), taxa.Len()-3)
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
			add := []int{absent[rng.Intn(len(absent))], absent[rng.Intn(len(absent))]}
			if i%3 == 0 {
				add = append(add, absent[rng.Intn(len(absent))])
			}
			if add[0] == add[1] || len(add) == 3 && (add[2] == add[0] || add[2] == add[1]) {
				continue
			}
			checkDerived(t, &w, &oracle, tr, &re, add...)
			taken++
			if len(add) == 3 {
				chains++
			}
			if lo := tr.LeafSet().Min(); add[0] > lo && add[0] < tr.LeafSet().NextSetBit(lo+1) {
				rose++ // on every edge but the lowest leaf's, up to the root
			}
		}
	}
	if s := w.Stats; taken < 100 || chains < 20 || rose == 0 || !re.each() || s.Derived == 0 || s.Spliced == 0 || s.Recut == 0 {
		t.Fatalf("%d chains taken (%d of three, %d rising to the root), re-roots %v, %+v", taken, chains, rose, re, s)
	}
}

// TestDeriveAllocs: deriving bases from a walked and from a derived one,
// cutting trees from them and popping them allocates nothing once the writer
// has seen a tree of the size — a chain through two re-roots included: the
// tree lacks the three lowest taxa, and the first two derivations each bring
// one that sorts before every leaf.
func TestDeriveAllocs(t *testing.T) {
	taxa := MustTaxa(awkwardNames(132, "a"))
	all := randomTree(taxa, rand.New(rand.NewSource(4)))
	rest := all.LeafSet().Clone()
	for x := 0; x < 3; x++ {
		rest.Remove(x)
	}
	tr := all.Restrict(rest)
	var w NewickWriter
	var buf []byte
	run := func() {
		if !w.SetBase(tr) {
			t.Fatal("no base")
		}
		for e := int32(0); e < int32(tr.NumEdges()); e += 7 {
			w.Derive(2, e)
			for f := int32(0); f < int32(tr.NumEdges()+2); f += 11 {
				w.Derive(0, f)
				for g := int32(0); g < int32(tr.NumEdges()+4); g += 5 {
					buf = w.AppendWith(buf[:0], 1, g)
				}
				w.Pop()
			}
			w.Pop()
		}
	}
	run()
	if n := testing.AllocsPerRun(20, run); n != 0 {
		t.Errorf("SetBase, Derive, AppendWith and Pop: %v allocs, want 0", n)
	}
}

// TestDeriveFull: on a tree of 1 500 of 3 000 taxa a chain of derivations
// fills the writer's budget after a few dozen bases, not the thousand and
// more a chain to the full tree would hold: the arena never grows past the
// budget, the three bases derived above a full one still fit it, and each
// base of the chain equals the walk of its tree.
func TestDeriveFull(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	taxa := MustTaxa(names(3000))
	tr := randomSubsetTree(taxa, 1500, rng)
	var w, oracle NewickWriter
	if !w.SetBase(tr) {
		t.Fatal("no base")
	}
	lo := tr.LeafSet().Min()
	var added []int
	for x := lo + 1; x < taxa.Len() && !w.Full(); x++ {
		if tr.HasTaxon(x) {
			continue
		}
		e := int32(rng.Intn(tr.NumEdges()))
		w.Derive(x, e)
		tr.AttachLeaf(x, e)
		added = append(added, x)
		if len(added)%16 == 0 {
			if err := checkBase(&w, &oracle, tr); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n := len(added); n < 32 || n > 200 || cap(w.arena) > w.budget {
		t.Fatalf("full after %d bases, arena %d bytes of a budget of %d", n, cap(w.arena), w.budget)
	}
	for k := 0; k < 3; k++ {
		x := lo + 1
		for tr.HasTaxon(x) {
			x++
		}
		e := int32(rng.Intn(tr.NumEdges()))
		w.Derive(x, e)
		tr.AttachLeaf(x, e)
		added = append(added, x)
	}
	if err := checkBase(&w, &oracle, tr); err != nil || cap(w.arena) > w.budget {
		t.Fatalf("three bases above a full one: %v, arena %d bytes of a budget of %d", err, cap(w.arena), w.budget)
	}
	for i := len(added) - 1; i >= 0; i-- {
		w.Pop()
		tr.DetachLeaf(added[i])
	}
	if err := checkBase(&w, &oracle, tr); err != nil {
		t.Fatal(err)
	}
}
