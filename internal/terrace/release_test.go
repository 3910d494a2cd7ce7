package terrace

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"gentrius/internal/tree"
)

// coldNew is New on storage of its own: the free list is emptied first.
func coldNew(t *testing.T, cons []*tree.Tree, idx int) *Terrace {
	t.Helper()
	free.Store(nil)
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
	st := free.Load()
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
		if free.Load() != st {
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

// TestReleaseOnCloneKeepsNothing: a clone owns no storage, so its Release
// changes nothing and it stays usable; the original's Release hands its
// storage over, once, and leaves a Terrace that panics on use.
func TestReleaseOnCloneKeepsNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(3302))
	_, cons := randomScenario(rng, 13, 3, 5, 0.6)
	tr := coldNew(t, cons, 0)
	greedyPath(tr, 2)
	c := tr.Clone()
	c.Release()
	if free.Load() != nil {
		t.Fatal("Release on a clone kept storage")
	}
	if c.Signature() != tr.Signature() {
		t.Fatal("Release on a clone changed it")
	}
	st := tr.store
	tr.Release()
	if free.Load() != st {
		t.Fatal("Release on the original kept none of its storage")
	}
	free.Store(nil)
	tr.Release()
	if free.Load() != nil {
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
	if free.Load() != nil {
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
