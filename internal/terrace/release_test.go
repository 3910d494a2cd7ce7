package terrace

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"gentrius/internal/tree"
)

// emptyFree empties the free list.
func emptyFree() {
	free.Lock()
	defer free.Unlock()
	clear(free.list)
	free.list, free.bytes = free.list[:0], 0
}

// topFree returns the storage released last, nil when the list is empty.
func topFree() *storage {
	free.Lock()
	defer free.Unlock()
	if len(free.list) == 0 {
		return nil
	}
	return free.list[len(free.list)-1]
}

// coldNew is New on storage of its own: the free list is emptied first.
func coldNew(t *testing.T, cons []*tree.Tree, idx int) *Terrace {
	t.Helper()
	emptyFree()
	tr, err := New(cons, idx)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// releasedFrom releases a Terrace built on cons from initial tree idx, k
// greedy insertions deep and not rewound, and returns the storage the free
// list then holds.
func releasedFrom(t *testing.T, cons []*tree.Tree, idx, k int) *storage {
	t.Helper()
	tr := coldNew(t, cons, idx)
	greedyPath(tr, k)
	tr.Release()
	st := topFree()
	if st == nil {
		t.Fatal("Release kept no storage")
	}
	return st
}

// sameAsFresh fails unless tr, built by New on storage a released Terrace
// left, is the Terrace New builds on storage of its own: the same Signature,
// every field (diffState), intact invariants and, when count is set, the
// same stand.
func sameAsFresh(t *testing.T, tr *Terrace, cons []*tree.Tree, idx int, count bool, ctx string) {
	t.Helper()
	fresh := coldNew(t, cons, idx)
	if tr.Signature() != fresh.Signature() {
		t.Fatalf("%s: signatures differ\n reused %s\n fresh  %s", ctx, tr.Signature(), fresh.Signature())
	}
	if err := diffState(tr, fresh); err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
	if count {
		if got, want := countStand(tr), countStand(fresh); got != want {
			t.Fatalf("%s: %d stand trees on reused storage, %d on fresh", ctx, got, want)
		}
	}
}

// TestReleasedStorageGivesSameTerrace: a New that takes the storage of a
// released Terrace builds the Terrace a New on fresh storage builds, whether
// the released one was of a larger, a smaller or the same stand, was left at
// depth > 0, or was a New that failed as incompatible.
func TestReleasedStorageGivesSameTerrace(t *testing.T) {
	rng := rand.New(rand.NewSource(3301))
	_, small := randomScenario(rng, 13, 3, 5, 0.6) // small enough to enumerate
	large := coveredScenario(rng, 90, 9, 0.6)
	mid := coveredScenario(rng, 40, 6, 0.5)
	for _, tc := range []struct {
		name     string
		from, to []*tree.Tree
		depth    int
		fits     bool // the released int32 slab holds the new state
		count    bool
	}{
		{"larger", large, small, 0, true, true},
		{"smaller", small, mid, 0, false, false},
		{"same", mid, mid, 0, true, false},
		{"larger, at depth", large, mid, 7, true, false},
		{"same, at depth", small, small, 5, true, true},
	} {
		for idx := range tc.to {
			ctx := fmt.Sprintf("%s, initial tree %d", tc.name, idx)
			st := releasedFrom(t, tc.from, idx%len(tc.from), tc.depth)
			i32 := &st.i32[0]
			tr, err := New(tc.to, idx)
			if err != nil {
				t.Fatalf("%s: %v", ctx, err)
			}
			if tr.store != st {
				t.Fatalf("%s: New did not take the released storage", ctx)
			}
			if tc.fits && &tr.store.i32[0] != i32 {
				t.Fatalf("%s: New replaced an int32 slab that was large enough", ctx)
			}
			sameAsFresh(t, tr, tc.to, idx, tc.count, ctx)
		}
	}

	// An incompatible input takes the storage and hands it back.
	for tries := 0; ; tries++ {
		cons := coveredScenario(rng, 30, 5, 0.6)
		bad, ok := brokenScenario(cons, 0, rng)
		if !ok {
			if tries > 50 {
				t.Fatal("no incompatible scenario found")
			}
			continue
		}
		st := releasedFrom(t, large, 0, 3)
		if _, err := New(bad, 0); !errors.Is(err, ErrIncompatible) {
			t.Fatalf("perturbed scenario: %v, want ErrIncompatible", err)
		}
		if topFree() != st {
			t.Fatal("a New that failed did not hand back the storage it took")
		}
		tr, err := New(cons, 0)
		if err != nil {
			t.Fatal(err)
		}
		sameAsFresh(t, tr, cons, 0, false, "after a failed New")
		break
	}
}

// TestReleaseOnCloneHandsBackStorage: a clone's Release hands its storage
// over and leaves the original untouched; the original's hands over its own,
// once, and leaves a Terrace that panics on use.
func TestReleaseOnCloneHandsBackStorage(t *testing.T) {
	rng := rand.New(rand.NewSource(3302))
	_, cons := randomScenario(rng, 13, 3, 5, 0.6)
	tr := coldNew(t, cons, 0)
	greedyPath(tr, 2)
	before := tr.Signature()
	c := tr.Clone()
	if c.store == nil || c.store == tr.store {
		t.Fatal("a clone does not own storage of its own")
	}
	cst := c.store
	c.Release()
	if topFree() != cst {
		t.Fatal("Release on a clone kept none of its storage")
	}
	if tr.Signature() != before {
		t.Fatal("Release on a clone changed its original")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	st := tr.store
	tr.Release()
	if topFree() != st {
		t.Fatal("Release on the original kept none of its storage")
	}
	emptyFree()
	tr.Release()
	c.Release()
	if topFree() != nil {
		t.Fatal("a second Release kept storage again")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a released Terrace answered a query")
		}
	}()
	tr.AllowedBranches(0)
}

// TestReleaseDropsLargeStorage: storage above maxFree is not kept.
func TestReleaseDropsLargeStorage(t *testing.T) {
	rng := rand.New(rand.NewSource(3303))
	_, cons := randomScenario(rng, 13, 3, 5, 0.6)
	tr := coldNew(t, cons, 0)
	st := tr.store
	st.ix = make([]int32, 0, maxFree/4) // an index slab of maxFree bytes on its own
	tr.Release()
	if topFree() != nil {
		t.Fatalf("Release kept %d bytes of storage, over the bound of %d", st.bytes(), maxFree)
	}
}

// TestNewReleaseConcurrently: goroutines build and release Terraces of
// different stands back to back (run under -race); every one is the Terrace
// fresh storage gives.
func TestNewReleaseConcurrently(t *testing.T) {
	rng := rand.New(rand.NewSource(3304))
	var stands [][]*tree.Tree
	var want []string
	for i := 0; i < 4; i++ {
		n, m, cover := scenarioShape(rng)
		cons := coveredScenario(rng, n, m, cover)
		stands = append(stands, cons)
		want = append(want, coldNew(t, cons, 0).Signature())
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 30; round++ {
				i := (g + round) % len(stands)
				tr, err := New(stands[i], 0)
				if err != nil {
					t.Error(err)
					return
				}
				greedyPath(tr, round%4)
				for tr.Depth() > 0 {
					tr.RemoveTaxon()
				}
				if tr.Signature() != want[i] {
					t.Errorf("goroutine %d, round %d: stand %d differs from a fresh build", g, round, i)
					return
				}
				tr.Release()
			}
		}(g)
	}
	wg.Wait()
}

// wreck leaves tr mid-mutation, as a recovered panic does: an ExtendTaxon at
// an edge some constraint refuses panics once the agile tree has the leaf.
func wreck(t *testing.T, tr *Terrace) {
	t.Helper()
	for _, x := range tr.MissingTaxa() {
		if tr.Agile().HasTaxon(x) {
			continue
		}
		allowed := tr.AllowedBranches(x)
		for e := int32(0); e < int32(tr.Agile().NumEdges()); e++ {
			if slices.Contains(allowed, e) {
				continue
			}
			panicked := func() (p bool) {
				defer func() { p = recover() != nil }()
				tr.ExtendTaxon(x, e)
				return
			}()
			if !panicked {
				t.Fatalf("taxon %d went in at inadmissible edge %d", x, e)
			}
			return
		}
	}
	t.Fatal("no inadmissible insertion to wreck the Terrace with")
}

// TestCloneOnReusedStorageEqualsFresh: a clone laid out in storage a
// released Terrace left is the clone fresh storage gives — the same
// Signature, every field (diffState), intact invariants — and replays the
// same path to the same stand, whether the storage last served a larger New,
// a smaller New, another clone, or a New or clone abandoned mid-mutation.
func TestCloneOnReusedStorageEqualsFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(3305))
	_, small := randomScenario(rng, 13, 3, 5, 0.6) // small enough to enumerate
	large := coveredScenario(rng, 90, 9, 0.6)
	tiny := coveredScenario(rng, 8, 2, 0.7)
	newAt := func(cons []*tree.Tree, depth int) *Terrace {
		tr, err := New(cons, 0)
		if err != nil {
			t.Fatal(err)
		}
		greedyPath(tr, depth)
		return tr
	}
	for _, tc := range []struct {
		name    string
		release func() // releases one Terrace, whose storage is then on top
	}{
		{"larger New", func() { newAt(large, 5).Release() }},
		{"smaller New", func() { newAt(tiny, 1).Release() }},
		{"clone", func() {
			orig := newAt(large, 2)
			c := orig.Clone()
			greedyPath(c, 6)
			orig.Release()
			c.Release()
		}},
		{"New mid-mutation", func() {
			tr := newAt(large, 3)
			wreck(t, tr)
			tr.Release()
		}},
		{"clone mid-mutation", func() {
			c := newAt(large, 1).Clone()
			wreck(t, c)
			c.Release()
		}},
	} {
		for depth := 0; depth < 4; depth += 3 {
			ctx := fmt.Sprintf("%s, clone at depth %d", tc.name, depth)
			orig := coldNew(t, small, 0)
			taxa, edges := greedyPath(orig, depth)
			emptyFree()
			fresh := orig.Clone()
			tc.release()
			st := topFree()
			reused := orig.Clone()
			if reused.store != st {
				t.Fatalf("%s: Clone did not take the released storage", ctx)
			}
			if reused.Signature() != fresh.Signature() {
				t.Fatalf("%s: signatures differ\n reused %s\n fresh  %s", ctx, reused.Signature(), fresh.Signature())
			}
			if err := diffState(reused, fresh); err != nil {
				t.Fatalf("%s: %v", ctx, err)
			}
			if err := reused.CheckInvariants(); err != nil {
				t.Fatalf("%s: %v", ctx, err)
			}
			// The same path on: the same state and the same stand below it.
			more, moreEdges := greedyPath(fresh, 2)
			for i, x := range more {
				reused.ExtendTaxon(x, moreEdges[i])
			}
			if reused.Signature() != fresh.Signature() {
				t.Fatalf("%s: the clones part after %d more insertions", ctx, len(more))
			}
			if got, want := countStand(reused), countStand(fresh); got != want {
				t.Fatalf("%s: %d stand trees on reused storage, %d on fresh", ctx, got, want)
			}
			for reused.Depth() > 0 {
				reused.RemoveTaxon()
			}
			replayed := coldNew(t, small, 0)
			if reused.Signature() != replayed.Signature() {
				t.Fatalf("%s: the clone rewound to depth 0 differs from New (path %v %v)", ctx, taxa, edges)
			}
		}
	}
}

// TestCloneReleaseConcurrently: goroutines clone one Terrace, count its
// stand and release the clone, while others build and release Terraces of
// other stands (run under -race), so storage passes between Clone and New;
// every clone counts the stand, and the original does not change.
func TestCloneReleaseConcurrently(t *testing.T) {
	rng := rand.New(rand.NewSource(3306))
	_, cons := randomScenario(rng, 13, 3, 5, 0.6)
	proto := coldNew(t, cons, 0)
	greedyPath(proto, 1)
	before := proto.Signature()
	want := countStand(proto.Clone())
	others := [][]*tree.Tree{coveredScenario(rng, 60, 6, 0.6), coveredScenario(rng, 9, 2, 0.7)}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				if g%3 == 2 {
					tr, err := New(others[(g+round)%2], 0)
					if err != nil {
						t.Error(err)
						return
					}
					greedyPath(tr, round%5)
					tr.Release()
					continue
				}
				c := proto.Clone()
				if got := countStand(c); got != want {
					t.Errorf("goroutine %d, round %d: %d stand trees on a clone, want %d", g, round, got, want)
					return
				}
				c.Release()
			}
		}(g)
	}
	wg.Wait()
	if proto.Signature() != before {
		t.Fatal("the original changed while being cloned")
	}
}

// TestFreeListHoldsAtMostMaxFree: the free list drops its oldest storage
// rather than hold more than maxFree bytes in all, keeps the latest on top,
// and accounts for every byte it holds.
func TestFreeListHoldsAtMostMaxFree(t *testing.T) {
	emptyFree()
	defer emptyFree()
	held := func() (n int) {
		for _, st := range free.list {
			n += st.bytes()
		}
		return n
	}
	slab := make([]int32, maxFree/4/5) // each storage holding it counts a fifth of maxFree
	var put []*storage
	for i := 0; i < 8; i++ {
		st := &storage{ix: slab}
		putStorage(st)
		put = append(put, st)
		if free.bytes > maxFree || free.bytes != held() {
			t.Fatalf("after %d storages: the list holds %d bytes and counts %d, bound %d", i+1, held(), free.bytes, maxFree)
		}
		if topFree() != st {
			t.Fatalf("storage %d is not on top", i)
		}
	}
	if len(free.list) != 5 || free.list[0] != put[3] {
		t.Fatalf("the list keeps %d storages, want the latest 5", len(free.list))
	}
	// A real Terrace's storage pushes out the oldest, not itself.
	rng := rand.New(rand.NewSource(3307))
	_, cons := randomScenario(rng, 13, 3, 5, 0.6)
	tr, err := New(cons, 0)
	if err != nil {
		t.Fatal(err)
	}
	st := tr.store
	tr.Clone().Release()
	tr.Release()
	if topFree() != st || free.bytes > maxFree || free.bytes != held() {
		t.Fatalf("after releasing a Terrace: top %p (want %p), %d bytes counted, %d held", topFree(), st, free.bytes, held())
	}
	for topFree() != nil {
		takeStorage()
	}
	if free.bytes != 0 {
		t.Fatalf("an empty list counts %d bytes", free.bytes)
	}
}
