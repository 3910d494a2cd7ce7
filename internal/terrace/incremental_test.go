package terrace

import (
	"math/rand"
	"slices"
	"testing"

	"gentrius/internal/gen"
	"gentrius/internal/tree"
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

// checkCountsAfter holds CountsAfter against the insertions it stands for, at
// the current state. For every pending taxon x and pair of other pending taxa
// (y, z) — every pair where five or fewer are pending, else each taxon with
// the next one — that CountsAfter allows, x is inserted for real at each of
// its admissible edges b, and the rule read one level deeper must predict,
// from this state's counts and sets: the count of y and of z (their counts
// now, plus 2 each iff b is admissible for it); the branch list of each in
// order (its branches now, then NumEdges and NumEdges+1 iff b is admissible
// for it); and every CountAfter answer beneath, for y at each of its branches
// with z last and the other way round (ok, and z's count after x, plus 2 iff
// the branch is admissible for z now — for the two new ids, iff b is). The
// queries must leave Signature alone. It returns how many triples were
// allowed and refused.
func checkCountsAfter(t *testing.T, tr *Terrace, ctx string) (allowed, refused int) {
	t.Helper()
	var pending []int
	for _, x := range tr.MissingTaxa() {
		if !tr.agile.HasTaxon(x) {
			pending = append(pending, x)
		}
	}
	var pairs [][2]int
	for i, y := range pending {
		for j := i + 1; j < len(pending); j++ {
			if len(pending) <= 5 || j == i+1 {
				pairs = append(pairs, [2]int{y, pending[j]})
			}
		}
	}
	sig := tr.Signature()
	type triple struct{ x, y, z int }
	var ok []triple
	for _, x := range pending {
		for _, p := range pairs {
			if p[0] == x || p[1] == x {
				continue
			}
			if tr.CountsAfter(x, p[0], p[1]) != tr.CountsAfter(x, p[1], p[0]) {
				t.Fatalf("%s: CountsAfter(%d, %d, %d) is not symmetric in the pair", ctx, x, p[0], p[1])
			}
			if tr.CountsAfter(x, p[0], p[1]) {
				ok = append(ok, triple{x, p[0], p[1]})
			} else {
				refused++
			}
		}
	}
	if tr.Signature() != sig {
		t.Fatalf("%s: CountsAfter changed the state", ctx)
	}
	// What the rule reads, all of this state's.
	set, count := map[int]map[int32]bool{}, map[int]int{}
	list := map[int][]int32{}
	for _, y := range pending {
		list[y] = tr.AllowedBranches(y)
		count[y] = tr.CountAllowedBranches(y)
		set[y] = map[int32]bool{}
		for _, e := range list[y] {
			set[y][e] = true
		}
	}
	gain := func(e int32, y int) int {
		if set[y][e] {
			return 2
		}
		return 0
	}
	ne := int32(tr.agile.NumEdges())
	for _, q := range ok {
		for _, b := range list[q.x] {
			tr.ExtendTaxon(q.x, b)
			for _, yz := range [][2]int{{q.y, q.z}, {q.z, q.y}} {
				y, z := yz[0], yz[1]
				want := append([]int32(nil), list[y]...)
				if gain(b, y) > 0 {
					want = append(want, ne, ne+1)
				}
				if got := tr.AllowedBranches(y); !slices.Equal(got, want) {
					t.Fatalf("%s: %d at %d: %d's branches %v, the rule lists %v", ctx, q.x, b, y, got, want)
				}
				if c := count[y] + gain(b, y); tr.PendingCount(y) != c || tr.CountAllowedBranches(y) != c {
					t.Fatalf("%s: %d at %d: %d's count %d, the rule's %d", ctx, q.x, b, y, tr.CountAllowedBranches(y), c)
				}
				zAfter := count[z] + gain(b, z)
				for _, e := range want {
					c := zAfter + gain(e, z)
					if e >= ne {
						c = zAfter + gain(b, z)
					}
					if n, answered := tr.CountAfter(y, e, z); !answered || n != c {
						t.Fatalf("%s: %d at %d: CountAfter(%d, %d, %d) = %d, %v; the rule's %d", ctx, q.x, b, y, e, z, n, answered, c)
					}
				}
			}
			tr.RemoveTaxon()
		}
		allowed++
	}
	return allowed, refused
}

// TestCountsAfterSharedTaxon is the clause of CountsAfter no walk over the
// corpus reaches: a constraint holding x, y and z, none of whose taxa is in
// the agile tree — it takes a fourth missing taxon, as a constraint has four
// at least, so an engine, which asks with three missing, never meets it.
// Here no other constraint holds two of the three, so the first two clauses
// pass: inserting x leaves that constraint one taxon short of active, and
// CountAfter answers y's count and z's. But y's insertion then activates it,
// so CountAfter refuses z beneath every branch of y, and the rule's
// prediction would not be the Terrace's: CountsAfter refuses the triple.
func TestCountsAfterSharedTaxon(t *testing.T) {
	taxa := tree.MustTaxa([]string{"A", "B", "C", "D", "X", "Y", "Z", "W"})
	cons := []*tree.Tree{
		tree.MustParse("((A,B),(C,D));", taxa),
		tree.MustParse("((A,X),(B,C));", taxa),
		tree.MustParse("((A,Y),(B,D));", taxa),
		tree.MustParse("((B,Z),(C,D));", taxa),
		tree.MustParse("((X,Y),(Z,W));", taxa),
	}
	tr, err := New(cons, 0)
	if err != nil {
		t.Fatal(err)
	}
	const x, y, z = 4, 5, 6 // X, Y and Z
	if tr.CountsAfter(x, y, z) {
		t.Fatal("CountsAfter allowed a triple whose shared constraint has no taxon inserted")
	}
	for _, b := range tr.AllowedBranches(x) {
		for _, w := range []int{y, z} {
			if _, ok := tr.CountAfter(x, b, w); !ok {
				t.Fatalf("inserting X at %d restructures taxon %d: another clause refuses the triple", b, w)
			}
		}
		tr.ExtendTaxon(x, b)
		for _, e := range tr.AllowedBranches(y) {
			if _, ok := tr.CountAfter(y, e, z); ok {
				t.Fatalf("after X at %d, Y at %d does not restructure Z", b, e)
			}
		}
		tr.RemoveTaxon()
	}
	// The rule holds on what CountsAfter allows here, at every state a walk
	// passes through.
	rng := rand.New(rand.NewSource(3))
	for step := 0; step < 20 && walkStep(tr, rng); step++ {
		checkCountsAfter(t, tr, "shared-taxon stand")
	}
}

// TestCountAfterMatchesInsertion walks stands of both corpus regimes and, at
// every state of the walk, checks every CountAfter query there is to ask, and
// CountsAfter's on the triples checkCountsAfter picks.
func TestCountAfterMatchesInsertion(t *testing.T) {
	answered, refused := 0, 0
	allowed, denied := 0, 0
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
				a, r = checkCountsAfter(t, tr, ds.Name)
				allowed, denied = allowed+a, denied+r
				if !walkStep(tr, rng) {
					break
				}
			}
		}
	}
	if answered < 1000 || refused < 100 || allowed < 1000 || denied < 100 {
		t.Fatalf("CountAfter: %d queries answered and %d refused; CountsAfter: %d triples allowed and %d refused: all must occur, often",
			answered, refused, allowed, denied)
	}
	t.Logf("CountAfter: %d answered, %d refused; CountsAfter: %d allowed, %d refused", answered, refused, allowed, denied)
}
