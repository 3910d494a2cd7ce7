package terrace

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"gentrius/internal/bitset"
	"gentrius/internal/tree"
)

// diffState compares two Terraces field by field through reflection, so a
// field added to Terrace or constraintState later takes part without this
// test being told. Nil and empty slices count as equal (New leaves a log nil
// where Clone leaves it empty); pointers to the same object are equal
// without being followed; the query buffers, dead between operations, and
// the storage the state was laid out in are skipped. It returns the path of
// the first difference.
func diffState(a, b *Terrace) error {
	if err := diffValue(reflect.ValueOf(a).Elem(), reflect.ValueOf(b).Elem()); err != nil {
		return fmt.Errorf("Terrace%w", err)
	}
	return nil
}

var skipped = map[string]bool{"dfsBuf": true, "pendBuf": true, "rowsBuf": true, "store": true}

// diffValue's errors read as a path below the compared value followed by
// the difference; the path is only put together on the way out.
func diffValue(a, b reflect.Value) error {
	differ := func(format string, args ...any) error {
		return fmt.Errorf(": "+format, args...)
	}
	switch a.Kind() {
	case reflect.Ptr:
		if a.Pointer() == b.Pointer() {
			return nil
		}
		if a.IsNil() || b.IsNil() {
			return differ("nil on one side only")
		}
		return diffValue(a.Elem(), b.Elem())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			name := a.Type().Field(i).Name
			if skipped[name] {
				continue
			}
			if err := diffValue(a.Field(i), b.Field(i)); err != nil {
				return fmt.Errorf(".%s%w", name, err)
			}
		}
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return differ("len %d vs %d", a.Len(), b.Len())
		}
		if a.Kind() == reflect.Slice && a.Len() > 0 {
			// Scalars hold no pointers: equal bytes are equal values, and
			// the lanes are too long to walk through reflection every time.
			switch et := a.Type().Elem(); et.Kind() {
			case reflect.Bool, reflect.Int32, reflect.Uint64:
				size := a.Len() * int(et.Size())
				if bytes.Equal(unsafe.Slice((*byte)(a.UnsafePointer()), size), unsafe.Slice((*byte)(b.UnsafePointer()), size)) {
					return nil
				}
			}
		}
		for i := 0; i < a.Len(); i++ {
			if err := diffValue(a.Index(i), b.Index(i)); err != nil {
				return fmt.Errorf("[%d]%w", i, err)
			}
		}
	case reflect.Map:
		// Only tree.Taxa holds one, and the universe is shared by pointer.
		if a.Pointer() != b.Pointer() {
			return differ("distinct maps")
		}
	case reflect.Bool:
		if a.Bool() != b.Bool() {
			return differ("%v vs %v", a.Bool(), b.Bool())
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if a.Int() != b.Int() {
			return differ("%d vs %d", a.Int(), b.Int())
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		if a.Uint() != b.Uint() {
			return differ("%#x vs %#x", a.Uint(), b.Uint())
		}
	case reflect.String:
		if a.String() != b.String() {
			return differ("%q vs %q", a.String(), b.String())
		}
	default:
		return differ("diffValue cannot compare a %s", a.Kind())
	}
	return nil
}

// scenarioShape draws the differential tests' input sizes: mostly small
// with up to 20 loci, a tail up to 300 taxa with fewer (every locus is an
// initial tree to try, and the reference is quadratic), coverage from sparse
// to nearly full.
func scenarioShape(rng *rand.Rand) (n, m int, cover float64) {
	switch k := rng.Intn(20); {
	case k == 0:
		n, m = 120+rng.Intn(181), 2+rng.Intn(7)
	case k < 5:
		n, m = 40+rng.Intn(80), 2+rng.Intn(11)
	default:
		n, m = 8+rng.Intn(32), 2+rng.Intn(19)
	}
	return n, m, 0.3 + 0.6*rng.Float64()
}

// coveredScenario is randomScenario without the rejection loop, which does
// not terminate on sparse shapes: every taxon no column drew is put into a
// random one, and columns are topped up to four taxa.
func coveredScenario(rng *rand.Rand, n, m int, cover float64) []*tree.Tree {
	taxa := tree.MustTaxa(names(n))
	truth := randomTree(taxa, rng)
	cols := make([]*bitset.Set, m)
	for j := range cols {
		cols[j] = bitset.New(n)
	}
	for i := 0; i < n; i++ {
		hit := false
		for _, c := range cols {
			if rng.Float64() < cover {
				c.Add(i)
				hit = true
			}
		}
		if !hit {
			cols[rng.Intn(m)].Add(i)
		}
	}
	cons := make([]*tree.Tree, m)
	for j, c := range cols {
		for c.Count() < 4 {
			c.Add(rng.Intn(n))
		}
		cons[j] = truth.Restrict(c)
	}
	return cons
}

// checkAgainstReference builds the state with both initialisers and fails
// unless they agree: both succeed with identical states (the Signature, every
// pending taxon's target and projection, and every other field) and intact
// invariants, or both report ErrIncompatible. CheckInvariants re-derives
// everything in O(taxa x loci x common edges), so past 64 taxa it runs for
// the first initial tree only; the other states are still compared field by
// field with the reference's.
func checkAgainstReference(t *testing.T, cons []*tree.Tree, idx int, ctx string) (compatible bool) {
	t.Helper()
	got, err := New(cons, idx)
	want, werr := newReference(cons, idx)
	if err != nil || werr != nil {
		if !errors.Is(err, ErrIncompatible) || !errors.Is(werr, ErrIncompatible) {
			t.Fatalf("%s: New: %v; reference: %v", ctx, err, werr)
		}
		return false
	}
	if got.Signature() != want.Signature() {
		t.Fatalf("%s: signatures differ\n new %s\n ref %s", ctx, got.Signature(), want.Signature())
	}
	for ci, cs := range got.constraints {
		ws := want.constraints[ci]
		for _, y := range cs.pending {
			if cs.target[y] != ws.target[y] || cs.proj[y] != ws.proj[y] {
				t.Fatalf("%s: constraint %d taxon %d: target/proj %d/%d, reference %d/%d",
					ctx, ci, y, cs.target[y], cs.proj[y], ws.target[y], ws.proj[y])
			}
		}
	}
	if err := diffState(got, want); err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
	if idx == 0 || got.taxa.Len() <= 64 {
		if err := got.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", ctx, err)
		}
	}
	return true
}

// TestNewMatchesReference is the differential test of the linear
// initialiser against the one it replaced, on every choice of initial tree of
// a few hundred random scenarios.
func TestNewMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1501))
	inputs, want := 0, 2000
	if testing.Short() {
		want = 400
	}
	for scen := 0; inputs < want; scen++ {
		n, m, cover := scenarioShape(rng)
		cons := coveredScenario(rng, n, m, cover)
		for idx := range cons {
			ctx := fmt.Sprintf("scenario %d (%d taxa, %d loci, cover %.2f) initial %d", scen, n, m, cover, idx)
			if !checkAgainstReference(t, cons, idx, ctx) {
				t.Fatalf("%s: restrictions of one tree reported incompatible", ctx)
			}
			inputs++
		}
	}
}

// nni returns t after one nearest-neighbour interchange across internal edge
// e: a subtree on one side of e trades places with one on the other side.
func nni(t *tree.Tree, e int32, rng *rand.Rand) *tree.Tree {
	u, v := t.EdgeEndpoints(e)
	other := func(w int32) int32 {
		adj, _ := t.Adjacency(w)
		k := rng.Intn(3)
		if adj[k] == e {
			k = (k + 1) % 3
		}
		return adj[k]
	}
	eu, ev := other(u), other(v)
	var render func(w, from int32) string
	render = func(w, from int32) string {
		if tx := t.NodeTaxon(w); tx >= 0 {
			return t.Taxa().Name(int(tx))
		}
		var parts []string
		adj, deg := t.Adjacency(w)
		for k := 0; k < deg; k++ {
			switch ed := adj[k]; {
			case ed == from:
			case w == u && ed == eu:
				parts = append(parts, render(t.Other(ev, v), ev))
			case w == v && ed == ev:
				parts = append(parts, render(t.Other(eu, u), eu))
			default:
				parts = append(parts, render(t.Other(ed, w), ed))
			}
		}
		return "(" + strings.Join(parts, ",") + ")"
	}
	return tree.MustParse(render(u, tree.NoEdge)+";", t.Taxa())
}

// brokenScenario returns cons with constraint j != idx replaced by an NNI
// neighbour of itself that the initial tree cons[idx] contradicts on their
// common taxa (decided by the split-set oracle), or false if a few random
// tries find none.
func brokenScenario(cons []*tree.Tree, idx int, rng *rand.Rand) ([]*tree.Tree, bool) {
	for try := 0; try < 40; try++ {
		j := rng.Intn(len(cons))
		common := cons[j].LeafSet().Clone()
		common.IntersectWith(cons[idx].LeafSet())
		if j == idx || common.Count() < 4 {
			continue
		}
		e := int32(rng.Intn(cons[j].NumEdges()))
		if a, b := cons[j].EdgeEndpoints(e); cons[j].Degree(a) != 3 || cons[j].Degree(b) != 3 {
			continue
		}
		moved := nni(cons[j], e, rng)
		if moved.Restrict(common).SameTopology(cons[idx].Restrict(common)) {
			continue // the interchange is invisible on the common taxa
		}
		out := append([]*tree.Tree(nil), cons...)
		out[j] = moved
		return out, true
	}
	return nil, false
}

// TestNewIncompatibleMatchesReference: one NNI on a constraint that shows on
// its taxa common with the initial tree makes both initialisers report
// ErrIncompatible.
func TestNewIncompatibleMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1502))
	broken := 0
	for scen := 0; broken < 300; scen++ {
		n, m, cover := scenarioShape(rng)
		cons := coveredScenario(rng, n, m, cover)
		idx := rng.Intn(len(cons))
		bad, ok := brokenScenario(cons, idx, rng)
		if !ok {
			continue
		}
		broken++
		ctx := fmt.Sprintf("scenario %d (%d taxa, %d loci) initial %d", scen, n, m, idx)
		if checkAgainstReference(t, bad, idx, ctx) {
			t.Fatalf("%s: a contradicted constraint went unnoticed", ctx)
		}
	}
}

// FuzzNewEquiv feeds fuzzer-chosen scenarios through the initialiser
// differential, intact and with one constraint perturbed by an NNI (which
// may or may not show on the common taxa: the two must agree either way).
// The New under test takes the storage of a clone released just before, of
// a Terrace built on a second fuzzer-chosen stand, the reference New the
// storage of that Terrace; both were left up to 2·prevDepth insertions deep.
func FuzzNewEquiv(f *testing.F) {
	f.Add(int64(1), uint8(14), uint8(3), uint8(128), uint8(0), false, int64(2), uint8(40), uint8(0))
	f.Add(int64(7), uint8(60), uint8(9), uint8(40), uint8(5), true, int64(8), uint8(10), uint8(3))
	f.Add(int64(1234), uint8(200), uint8(18), uint8(230), uint8(2), true, int64(5), uint8(220), uint8(9))
	// Sparse scenarios whose News orient the agile tree for five distinct s0
	// and hold constraints that are inactive at the initial tree: seven of
	// 19 in the first, one of 12 in the second.
	f.Add(int64(3), uint8(30), uint8(17), uint8(0), uint8(0), false, int64(4), uint8(60), uint8(6))
	f.Add(int64(2), uint8(90), uint8(10), uint8(0), uint8(0), false, int64(9), uint8(100), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, mRaw, coverRaw, idxRaw uint8, perturb bool, prevSeed int64, prevRaw, prevDepth uint8) {
		prng := rand.New(rand.NewSource(prevSeed))
		pn := 8 + int(prevRaw)%120
		prev, err := New(coveredScenario(prng, pn, 2+pn%7, 0.6), 0)
		if err != nil {
			t.Fatal(err)
		}
		greedyPath(prev, int(prevDepth))
		c := prev.Clone()
		greedyPath(c, int(prevDepth))
		// The clone's storage goes on top: the first New below builds in it,
		// the second in prev's.
		prev.Release()
		c.Release()

		n := 8 + int(nRaw)%120
		m := 2 + int(mRaw)%19
		cover := 0.3 + 0.6*float64(coverRaw)/255
		rng := rand.New(rand.NewSource(seed))
		cons := coveredScenario(rng, n, m, cover)
		idx := int(idxRaw) % m
		if perturb {
			j := rng.Intn(m)
			e := int32(rng.Intn(cons[j].NumEdges()))
			if a, b := cons[j].EdgeEndpoints(e); cons[j].Degree(a) == 3 && cons[j].Degree(b) == 3 {
				cons = append([]*tree.Tree(nil), cons...)
				cons[j] = nni(cons[j], e, rng)
			}
		}
		checkAgainstReference(t, cons, idx, "fuzz")
	})
}

// greedyPath inserts up to k more taxa at their middle admissible branch and
// returns the path taken.
func greedyPath(tr *Terrace, k int) (taxa []int, edges []int32) {
	for _, x := range tr.MissingTaxa() {
		if len(taxa) == k {
			break
		}
		if tr.Agile().HasTaxon(x) {
			continue
		}
		br := tr.AllowedBranches(x)
		if len(br) == 0 {
			break
		}
		tr.ExtendTaxon(x, br[len(br)/2])
		taxa, edges = append(taxa, x), append(edges, br[len(br)/2])
	}
	return taxa, edges
}

// TestCloneEqualsOriginal: a clone of a fresh state equals it field by field,
// and so does a clone taken k insertions deep — which in turn equals a fresh
// state taken through the same k insertions.
func TestCloneEqualsOriginal(t *testing.T) {
	rng := rand.New(rand.NewSource(1503))
	for scen := 0; scen < 60; scen++ {
		n, m, cover := scenarioShape(rng)
		cons := coveredScenario(rng, n, m, cover)
		idx := rng.Intn(m)
		tr, err := New(cons, idx)
		if err != nil {
			t.Fatal(err)
		}
		if err := diffState(tr, tr.Clone()); err != nil {
			t.Fatalf("scenario %d: fresh clone: %v", scen, err)
		}
		taxa, edges := greedyPath(tr, 1+rng.Intn(12))
		deep := tr.Clone()
		if err := diffState(tr, deep); err != nil {
			t.Fatalf("scenario %d: clone at depth %d: %v", scen, len(taxa), err)
		}
		replayed, _ := New(cons, idx)
		for i, x := range taxa {
			replayed.ExtendTaxon(x, edges[i])
		}
		if deep.Signature() != replayed.Signature() {
			t.Fatalf("scenario %d: clone at depth %d differs from New + replay", scen, len(taxa))
		}
		// The clone carries on like the original: same answers, same undo.
		for _, x := range deep.MissingTaxa() {
			if !deep.Agile().HasTaxon(x) && !equalEdgeLists(deep.AllowedBranches(x), tr.AllowedBranches(x)) {
				t.Fatalf("scenario %d: taxon %d: clone and original disagree", scen, x)
			}
		}
		for deep.Depth() > 0 {
			deep.RemoveTaxon()
		}
		fresh, _ := New(cons, idx)
		if deep.Signature() != fresh.Signature() {
			t.Fatalf("scenario %d: clone rewound to depth 0 differs from a fresh state", scen)
		}
		if err := deep.CheckInvariants(); err != nil {
			t.Fatalf("scenario %d: %v", scen, err)
		}
	}
}

// sharedByClones names the slices a clone shares with its original: they
// are written by New and never again.
var sharedByClones = map[string]bool{"missing": true, "byTaxon": true, "notByTaxon": true}

// aliasedSlices lists the slice fields of a and b (Terrace or
// constraintState values) that share a backing array.
func aliasedSlices(a, b reflect.Value) (out []string) {
	for i := 0; i < a.NumField(); i++ {
		fa, fb, name := a.Field(i), b.Field(i), a.Type().Field(i).Name
		if fa.Kind() == reflect.Slice && fa.Cap() > 0 && fa.Pointer() == fb.Pointer() && !sharedByClones[name] {
			out = append(out, name)
		}
	}
	return out
}

// TestCloneSharesNoMutableState: no mutable slice of a clone aliases the
// original's, and working on the clone leaves the original untouched.
func TestCloneSharesNoMutableState(t *testing.T) {
	rng := rand.New(rand.NewSource(1504))
	for scen := 0; scen < 30; scen++ {
		_, cons := randomScenario(rng, 12+rng.Intn(40), 2+rng.Intn(8), 4, 0.6)
		tr, err := New(cons, 0)
		if err != nil {
			t.Fatal(err)
		}
		greedyPath(tr, rng.Intn(4))
		before := tr.Signature()
		c := tr.Clone()
		if al := aliasedSlices(reflect.ValueOf(tr).Elem(), reflect.ValueOf(c).Elem()); len(al) > 0 {
			t.Fatalf("scenario %d: clone aliases Terrace fields %v", scen, al)
		}
		if tr.agile == c.agile {
			t.Fatalf("scenario %d: clone shares the agile tree", scen)
		}
		for ci := range tr.constraints {
			a, b := tr.constraints[ci], c.constraints[ci]
			if a == b || a.s == b.s {
				t.Fatalf("scenario %d: clone shares constraint %d's state", scen, ci)
			}
			if al := aliasedSlices(reflect.ValueOf(a).Elem(), reflect.ValueOf(b).Elem()); len(al) > 0 {
				t.Fatalf("scenario %d: clone aliases constraint %d fields %v", scen, ci, al)
			}
		}
		for step := 0; step < 80; step++ {
			if !walkStep(c, rng) {
				break
			}
			for _, x := range c.MissingTaxa() {
				if !c.Agile().HasTaxon(x) {
					c.PendingCount(x)
				}
			}
		}
		if tr.Signature() != before {
			t.Fatalf("scenario %d: working on the clone changed the original", scen)
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("scenario %d: original after the clone's walk: %v", scen, err)
		}
	}
}

// countStand enumerates the whole search space below tr's state with the
// plainest possible recursion and returns the number of complete trees.
func countStand(tr *Terrace) int {
	if tr.Complete() {
		return 1
	}
	x := -1
	for _, y := range tr.MissingTaxa() {
		if !tr.Agile().HasTaxon(y) {
			x = y
			break
		}
	}
	total := 0
	for _, e := range tr.AllowedBranches(x) {
		tr.ExtendTaxon(x, e)
		total += countStand(tr)
		tr.RemoveTaxon()
	}
	return total
}

// TestCloneConcurrently: goroutines clone one prototype at the same time and
// each enumerates the full stand on its copy (run under -race).
func TestCloneConcurrently(t *testing.T) {
	rng := rand.New(rand.NewSource(1505))
	_, cons := randomScenario(rng, 13, 3, 5, 0.6)
	proto, err := New(cons, 0)
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := New(cons, 0)
	want := countStand(ref)
	const workers = 8
	got := make([]int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				got[w] = countStand(proto.Clone())
			}
		}(w)
	}
	wg.Wait()
	for w, g := range got {
		if g != want {
			t.Errorf("worker %d counted %d stand trees on its clone, want %d", w, g, want)
		}
	}
	if proto.Signature() != ref.Signature() {
		t.Fatal("the prototype changed while being cloned")
	}
}

// TestNewScalesLinearly pins the initialiser's growth: ten times the taxa
// must cost well under the hundredfold of a quadratic one. Minimum over a
// few runs of each size, taken by turns, so that a slow stretch of a noisy
// host hits both sizes and only makes the ratio smaller or equal.
func TestNewScalesLinearly(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	sizes := []int{200, 2000}
	cons := make([][]*tree.Tree, len(sizes))
	best := make([]time.Duration, len(sizes))
	for k, n := range sizes {
		_, cons[k] = randomScenario(rand.New(rand.NewSource(int64(n))), n, 10, 5, 0.6)
		best[k] = time.Duration(1 << 62)
	}
	for i := 0; i < 7; i++ {
		for k := range sizes {
			start := time.Now()
			if _, err := New(cons[k], 0); err != nil {
				t.Fatal(err)
			}
			best[k] = min(best[k], time.Since(start))
		}
	}
	small, large := best[0], best[1]
	if ratio := float64(large) / float64(small); ratio >= 25 {
		t.Fatalf("New: 2000 taxa cost %v, 200 taxa %v: %.1fx for 10x the taxa", large, small, ratio)
	}
}

// TestNewAndCloneAllocations pins how allocation counts grow: with the
// constraints, not with the taxa.
func TestNewAndCloneAllocations(t *testing.T) {
	for _, shape := range []struct{ n, m int }{{40, 4}, {40, 16}, {400, 4}, {400, 16}} {
		rng := rand.New(rand.NewSource(int64(shape.n*100 + shape.m)))
		_, cons := randomScenario(rng, shape.n, shape.m, 5, 0.6)
		proto, err := New(cons, 0)
		if err != nil {
			t.Fatal(err)
		}
		newAllocs := testing.AllocsPerRun(5, func() { New(cons, 0) })
		cloneAllocs := testing.AllocsPerRun(5, func() { proto.Clone() })
		recloneAllocs := testing.AllocsPerRun(5, func() { proto.Clone().Release() })
		t.Logf("%d taxa, %d loci: New %v allocs, Clone %v allocs, %v on released storage",
			shape.n, shape.m, newAllocs, cloneAllocs, recloneAllocs)
		if limit := float64(40 + 40*shape.m); newAllocs > limit {
			t.Errorf("%d taxa, %d loci: New makes %v allocations, limit %v", shape.n, shape.m, newAllocs, limit)
		}
		if limit := float64(16 + 2*shape.m); cloneAllocs > limit {
			t.Errorf("%d taxa, %d loci: Clone makes %v allocations, limit %v", shape.n, shape.m, cloneAllocs, limit)
		}
		if recloneAllocs > 1 { // the Terrace itself
			t.Errorf("%d taxa, %d loci: Clone on released storage makes %v allocations, limit 1", shape.n, shape.m, recloneAllocs)
		}
	}
}
