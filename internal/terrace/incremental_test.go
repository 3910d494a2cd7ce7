package terrace

import (
	"math/rand"
	"testing"

	"gentrius/internal/gen"
)

// checkPendingCounts asserts that the incrementally maintained count of
// every pending taxon matches a fresh from-scratch recount, and that the
// count agrees with the enumerated branch list.
func checkPendingCounts(t *testing.T, tr *Terrace, ctx string) {
	t.Helper()
	for _, x := range tr.MissingTaxa() {
		if tr.agile.HasTaxon(x) {
			continue
		}
		fresh := tr.CountAllowedBranches(x)
		inc := tr.PendingCount(x)
		if inc != fresh {
			t.Fatalf("%s: taxon %d: incremental count %d != fresh count %d", ctx, x, inc, fresh)
		}
		if n := len(tr.AllowedBranches(x)); n != fresh {
			t.Fatalf("%s: taxon %d: AllowedBranches len %d != count %d", ctx, x, n, fresh)
		}
	}
}

// TestIncrementalCountsRandomWalk drives random insert/remove walks over
// random scenarios and verifies after every single state transition that
// PendingCount is bit-identical to the from-scratch CountAllowedBranches.
func TestIncrementalCountsRandomWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	for trial := 0; trial < 25; trial++ {
		n := 9 + rng.Intn(9)
		m := 2 + rng.Intn(5)
		_, cons := randomScenario(rng, n, m, 4, 0.55+0.3*rng.Float64())
		tr, err := New(cons, rng.Intn(m))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		checkPendingCounts(t, tr, "initial")
		for step := 0; step < 220; step++ {
			// Bias toward inserting so walks reach depth, but also rewind.
			if tr.Depth() > 0 && (rng.Intn(3) == 0 || !anyInsertable(tr)) {
				tr.RemoveTaxon()
				checkPendingCounts(t, tr, "after remove")
				continue
			}
			x, ok := randomInsertable(tr, rng)
			if !ok {
				if tr.Depth() == 0 {
					break
				}
				tr.RemoveTaxon()
				checkPendingCounts(t, tr, "after remove (stuck)")
				continue
			}
			br := tr.AllowedBranches(x)
			tr.ExtendTaxon(x, br[rng.Intn(len(br))])
			checkPendingCounts(t, tr, "after insert")
		}
	}
}

// TestLocateStrategiesInterchangeable cross-checks the production
// anchor-path-bit split location against the two search-based references
// (preimage flood and rooted-chain walks) over random walks: after every
// insertion, every split it made must lie where both references put it
// (checkSplits), and the state must pass its invariants.
func TestLocateStrategiesInterchangeable(t *testing.T) {
	splits := 0
	for trial := 0; trial < 12; trial++ {
		rng := rand.New(rand.NewSource(31000 + int64(trial)))
		n := 12 + rng.Intn(10)
		m := 2 + rng.Intn(4)
		_, cons := randomScenario(rng, n, m, 4, 0.6)
		walkRng := rand.New(rand.NewSource(555 + int64(trial)))
		tr, err := New(cons, 0)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for step := 0; step < 70; step++ {
			if tr.Depth() > 0 && walkRng.Intn(4) == 0 {
				tr.RemoveTaxon()
			} else if x, ok := randomInsertable(tr, walkRng); ok {
				br := tr.AllowedBranches(x)
				tr.ExtendTaxon(x, br[walkRng.Intn(len(br))])
				if err := checkSplits(tr); err != nil {
					t.Fatalf("trial %d step %d: %v", trial, step, err)
				}
				for _, u := range tr.undo[len(tr.undo)-1].cs {
					if u.kind == cSplit {
						splits++
					}
				}
			} else if tr.Depth() > 0 {
				tr.RemoveTaxon()
			} else {
				break
			}
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
	if splits < 200 {
		t.Fatalf("%d splits checked: the walks do not exercise the locators", splits)
	}
}

// TestIncrementalCountsUndoExact verifies the undo property the stolen-task
// replay relies on: a deep insert run followed by a full rewind leaves every
// pending count (and the full signature) byte-identical to the start state.
func TestIncrementalCountsUndoExact(t *testing.T) {
	rng := rand.New(rand.NewSource(99177))
	for trial := 0; trial < 10; trial++ {
		_, cons := randomScenario(rng, 10+rng.Intn(6), 3, 4, 0.65)
		tr, err := New(cons, 0)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		before := tr.Signature()
		counts := map[int]int{}
		for _, x := range tr.MissingTaxa() {
			counts[x] = tr.PendingCount(x)
		}
		for depth := 0; depth < 64; depth++ {
			x, ok := randomInsertable(tr, rng)
			if !ok {
				break
			}
			br := tr.AllowedBranches(x)
			tr.ExtendTaxon(x, br[rng.Intn(len(br))])
		}
		for tr.Depth() > 0 {
			tr.RemoveTaxon()
		}
		if got := tr.Signature(); got != before {
			t.Fatalf("trial %d: signature changed across insert/rewind", trial)
		}
		for _, x := range tr.MissingTaxa() {
			if got := tr.PendingCount(x); got != counts[x] {
				t.Fatalf("trial %d: taxon %d count %d != pre-walk %d", trial, x, got, counts[x])
			}
		}
	}
}

func anyInsertable(tr *Terrace) bool {
	for _, x := range tr.MissingTaxa() {
		if !tr.agile.HasTaxon(x) && tr.CountAllowedBranches(x) > 0 {
			return true
		}
	}
	return false
}

func randomInsertable(tr *Terrace, rng *rand.Rand) (int, bool) {
	var cand []int
	for _, x := range tr.MissingTaxa() {
		if !tr.agile.HasTaxon(x) && tr.CountAllowedBranches(x) > 0 {
			cand = append(cand, x)
		}
	}
	if len(cand) == 0 {
		return 0, false
	}
	return cand[rng.Intn(len(cand))], true
}

// checkCountAfter holds CountAfter against the insertion it stands for, at
// the current state: for every ordered pair of pending taxa (x, z) and every
// admissible edge e of x, ok means the count is what ExtendTaxon(x, e) +
// CountAllowedBranches(z) finds, and !ok means that insertion invalidates z's
// cached count rather than patching it. The queries come first and must leave
// Signature and the invariants alone. It returns how many answered either way.
func checkCountAfter(t *testing.T, tr *Terrace, ctx string) (answered, refused int) {
	t.Helper()
	type query struct {
		x, z  int
		e     int32
		count int
		ok    bool
	}
	var pending []int
	for _, x := range tr.MissingTaxa() {
		if !tr.agile.HasTaxon(x) {
			pending = append(pending, x)
		}
	}
	sig := tr.Signature()
	var qs []query
	for _, x := range pending {
		for _, e := range tr.AllowedBranches(x) {
			for _, z := range pending {
				if z != x {
					c, ok := tr.CountAfter(x, e, z)
					qs = append(qs, query{x, z, e, c, ok})
				}
			}
		}
	}
	if tr.Signature() != sig {
		t.Fatalf("%s: CountAfter changed the state", ctx)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("%s: after CountAfter: %v", ctx, err)
	}
	for _, q := range qs {
		// Give z a cache entry for the insertion to patch or drop. A taxon of
		// one constraint keeps none (its count is the constraint's own), so
		// its validity flag, which nothing else reads, is borrowed.
		single := len(tr.byTaxon[q.z]) == 1
		if single {
			tr.pendOK[q.z] = true
		} else {
			tr.PendingCount(q.z)
		}
		tr.ExtendTaxon(q.x, q.e)
		invalidated := !tr.pendOK[q.z]
		want := tr.CountAllowedBranches(q.z)
		tr.RemoveTaxon()
		if single {
			tr.pendOK[q.z] = false
		}
		switch {
		case q.ok == invalidated:
			t.Fatalf("%s: CountAfter(%d, %d, %d) ok=%v, the insertion invalidates: %v", ctx, q.x, q.e, q.z, q.ok, invalidated)
		case q.ok && q.count != want:
			t.Fatalf("%s: CountAfter(%d, %d, %d) = %d, inserting finds %d", ctx, q.x, q.e, q.z, q.count, want)
		case q.ok:
			answered++
		default:
			refused++
		}
	}
	return answered, refused
}

// TestCountAfterMatchesInsertion walks stands of both corpus regimes and, at
// every state of the walk, checks every CountAfter query there is to ask.
func TestCountAfterMatchesInsertion(t *testing.T) {
	answered, refused := 0, 0
	for _, regime := range []gen.Regime{gen.RegimeSimulated, gen.RegimeEmpirical} {
		cfg := gen.Default(regime)
		cfg.MinTaxa, cfg.MaxTaxa = 12, 28
		for idx := 0; idx < 12; idx++ {
			ds := gen.Generate(cfg, idx)
			tr, err := New(ds.Constraints, idx%len(ds.Constraints))
			if err != nil {
				t.Fatalf("%s: %v", ds.Name, err)
			}
			rng := rand.New(rand.NewSource(int64(idx)))
			for step := 0; step < 40; step++ {
				a, r := checkCountAfter(t, tr, ds.Name)
				answered, refused = answered+a, refused+r
				if !walkStep(tr, rng) {
					break
				}
			}
		}
	}
	if answered < 1000 || refused < 100 {
		t.Fatalf("%d queries answered and %d refused: both must occur, often", answered, refused)
	}
	t.Logf("%d answered, %d refused", answered, refused)
}
