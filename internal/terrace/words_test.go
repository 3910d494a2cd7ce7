package terrace

import (
	"math/rand"
	"testing"
)

// walkStep advances a random insert/remove walk by one transition,
// returning false when the walk is stuck at depth 0 with nothing insertable.
func walkStep(tr *Terrace, rng *rand.Rand) bool {
	if tr.Depth() > 0 && rng.Intn(4) == 0 {
		tr.RemoveTaxon()
		return true
	}
	if x, ok := randomInsertable(tr, rng); ok {
		br := tr.AllowedBranches(x)
		tr.ExtendTaxon(x, br[rng.Intn(len(br))])
		return true
	}
	if tr.Depth() > 0 {
		tr.RemoveTaxon()
		return true
	}
	return false
}

// compareKernelScalar asserts that the word kernel and the scalar reference
// agree — element for element, order included — for every pending taxon,
// and that the count matches the materialised set.
func compareKernelScalar(t *testing.T, tr *Terrace, ctx string) {
	t.Helper()
	buf := make([]int32, 0, 64)
	for _, x := range tr.MissingTaxa() {
		if tr.Agile().HasTaxon(x) {
			continue
		}
		got := tr.AppendAllowedBranches(buf[:0], x)
		want := tr.appendAllowedScalar(nil, x)
		if !equalEdgeLists(got, want) {
			t.Fatalf("%s: taxon %d: kernel %v, scalar %v", ctx, x, got, want)
		}
		if c := tr.CountAllowedBranches(x); c != len(want) {
			t.Fatalf("%s: taxon %d: kernel count %d, scalar %d", ctx, x, c, len(want))
		}
	}
}

// TestWordKernelMatchesScalar drives random walks comparing the word-kernel
// admissibility queries against the retained scalar reference at every
// state, for every pending taxon.
func TestWordKernelMatchesScalar(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		rng := rand.New(rand.NewSource(77000 + int64(trial)))
		n := 10 + rng.Intn(10)
		m := 2 + rng.Intn(4)
		_, cons := randomScenario(rng, n, m, 4, 0.6)
		tr, err := New(cons, 0)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		compareKernelScalar(t, tr, "initial")
		for step := 0; step < 60; step++ {
			if !walkStep(tr, rng) {
				break
			}
			compareKernelScalar(t, tr, "walk")
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("trial %d step %d: %v", trial, step, err)
			}
		}
	}
}

// TestWordKernelCrossCheckWalks runs longer walks on larger scenarios: every
// AppendAllowedBranches result the walk itself consumes is re-derived with
// the scalar reference first.
func TestWordKernelCrossCheckWalks(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		rng := rand.New(rand.NewSource(91000 + int64(trial)))
		n := 12 + rng.Intn(12)
		m := 2 + rng.Intn(5)
		_, cons := randomScenario(rng, n, m, 4, 0.55)
		tr, err := New(cons, 0)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for step := 0; step < 150; step++ {
			if tr.Depth() > 0 && rng.Intn(4) == 0 {
				tr.RemoveTaxon()
			} else if x, ok := randomInsertable(tr, rng); ok {
				br := tr.AllowedBranches(x)
				if want := tr.appendAllowedScalar(nil, x); !equalEdgeLists(br, want) {
					t.Fatalf("trial %d step %d: taxon %d: kernel %v, scalar %v", trial, step, x, br, want)
				}
				tr.ExtendTaxon(x, br[rng.Intn(len(br))])
			} else if tr.Depth() > 0 {
				tr.RemoveTaxon()
			} else {
				break
			}
		}
	}
}

// TestAppendAllowedSteadyStateAllocs pins the kernel's allocation behavior:
// once the scratch row slice and the caller's buffer exist, materialising
// admissible sets allocates nothing, at any depth of a walk.
func TestAppendAllowedSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	_, cons := randomScenario(rng, 16, 3, 5, 0.6)
	tr, err := New(cons, 0)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]int32, 0, 4096)
	for step := 0; step < 25; step++ {
		if !walkStep(tr, rng) {
			break
		}
		for _, x := range tr.MissingTaxa() {
			if tr.Agile().HasTaxon(x) {
				continue
			}
			buf = tr.AppendAllowedBranches(buf[:0], x) // warm rowsBuf
			if a := testing.AllocsPerRun(50, func() {
				buf = tr.AppendAllowedBranches(buf[:0], x)
				tr.CountAllowedBranches(x)
			}); a != 0 {
				t.Fatalf("step %d taxon %d: %v allocs/op in steady state", step, x, a)
			}
		}
	}
}

// FuzzAllowedEquiv feeds fuzzer-chosen scenario and walk seeds through the
// kernel-vs-scalar differential and, at every state of the walk, an overlay
// walk held against the insertions it books (checkOverlay): any ordering or
// membership divergence, any count, branch list, id or refusal an insertion
// does not confirm, any invariant violation, and any panic is a finding.
func FuzzAllowedEquiv(f *testing.F) {
	f.Add(int64(1), int64(2), uint8(14), uint8(3), uint8(40))
	f.Add(int64(7), int64(99), uint8(9), uint8(5), uint8(60))
	f.Add(int64(1234), int64(5678), uint8(20), uint8(2), uint8(30))
	f.Fuzz(func(t *testing.T, scenSeed, walkSeed int64, nRaw, mRaw, steps uint8) {
		n := 8 + int(nRaw%16) // 8..23 taxa
		m := 2 + int(mRaw%4)  // 2..5 constraints
		rng := rand.New(rand.NewSource(scenSeed))
		_, cons := randomScenario(rng, n, m, 4, 0.6)
		tr, err := New(cons, 0)
		if err != nil {
			t.Skip() // degenerate scenario (e.g. all-identical columns)
		}
		walk := rand.New(rand.NewSource(walkSeed))
		for i := 0; i < int(steps); i++ {
			if !walkStep(tr, walk) {
				break
			}
			compareKernelScalar(t, tr, "fuzz walk")
			checkOverlay(t, tr, walk, 12, "fuzz walk")
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}
