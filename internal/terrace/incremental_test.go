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

// checkOverlay holds an Overlay on tr's current state against the
// insertions it books. A random walk of steps bookings and pops books taxa
// Restructures allows, three times in four, where one may, on the edge of
// the deepest booking any taxon may take, so that bookings nest on bookings;
// and, half the time where one may, a taxon whose insertion is a split the
// overlay can hold (BookSplit), on one of its real edges.
// After each booking the overlay's answers are
// taken down: every pending taxon's count, its branch list in order, whether
// it restructures, and the admissibility of every edge of the overlaid
// state. Then the bookings are made for real (Materialize), at the ids the
// overlay gave them, and the Terrace must give every answer again, its fresh
// counts too; and Restructures must be true exactly where inserting the taxon
// for real drops some other pending taxon's count rather than patching it.
// Then the insertions are removed and booked again, and the walk goes on. The
// Terrace ends where it began. It returns what it checked.
func checkOverlay(t *testing.T, tr *Terrace, rng *rand.Rand, steps int, ctx string) (st overlayStats) {
	t.Helper()
	sig := tr.Signature()
	ov := tr.Overlay()
	for step := 0; step < steps; step++ {
		if ov.Len() > 0 && rng.Intn(3) == 0 {
			ov.Pop()
			continue
		}
		var bookable, nesting, splits []int
		for y := ov.NextPending(0); y >= 0; y = ov.NextPending(y + 1) {
			switch shape := ov.Shape(y); {
			case ov.PendingCount(y) == 0:
			case shape == Split && ov.CanSplit(y):
				splits = append(splits, y)
			case shape != Additive:
				st.refused++
			default:
				bookable = append(bookable, y)
				if ov.gain[y] > 0 {
					nesting = append(nesting, y)
				}
			}
		}
		if len(splits) > 0 && (len(bookable) == 0 || rng.Intn(2) == 0) {
			x := splits[rng.Intn(len(splits))]
			br := overlaidBranches(ov, x)
			ov.BookSplit(x, br[rng.Intn(len(br))])
			st.split++
			checkBookings(t, tr, ov, ctx)
			continue
		}
		if len(bookable) == 0 {
			break
		}
		x := bookable[rng.Intn(len(bookable))]
		br := overlaidBranches(ov, x)
		e := br[rng.Intn(len(br))]
		if len(nesting) > 0 && rng.Intn(4) != 0 {
			deepest := -1
			for _, y := range nesting {
				for _, b := range overlaidBranches(ov, y) {
					if d := edgeDepth(ov, b); d > deepest {
						x, e, deepest = y, b, d
					}
				}
			}
		}
		st.booked[min(edgeDepth(ov, e), len(st.booked)-1)]++
		ov.Book(x, e)
		checkBookings(t, tr, ov, ctx)
	}
	for ov.Len() > 0 {
		ov.Pop()
	}
	if tr.Signature() != sig {
		t.Fatalf("%s: the overlay walk changed the state", ctx)
	}
	return st
}

// overlayStats is what checkOverlay checked: bookings by how deep they
// nested (booked[d]: made on an edge d bookings above the real edge it
// descends from; the last entry counts that deep or deeper), and taxa that
// Restructures refused.
type overlayStats struct {
	booked         [4]int
	refused, split int
}

func (s *overlayStats) add(o overlayStats) {
	for d, n := range o.booked {
		s.booked[d] += n
	}
	s.refused += o.refused
	s.split += o.split
}

// edgeDepth is how many bookings lie between edge e of ov's overlaid state
// and the real edge it descends from.
func edgeDepth(ov *Overlay, e int32) int {
	ne, d := int32(ov.tr.agile.NumEdges()), 0
	for ; e >= ne; e = ov.bookings[(e-ne)/2].edge {
		d++
	}
	return d
}

// checkBookings is checkOverlay's comparison of ov's bookings with the
// insertions they stand for.
func checkBookings(t *testing.T, tr *Terrace, ov *Overlay, ctx string) {
	t.Helper()
	type answer struct {
		count        int
		list         []int32
		restructures bool
		admissible   []bool // by edge of the overlaid state
	}
	edges := int32(tr.agile.NumEdges() + 2*ov.Len())
	want := map[int]answer{}
	var pending []int
	for y := ov.NextPending(0); y >= 0; y = ov.NextPending(y + 1) {
		a := answer{count: ov.PendingCount(y), list: overlaidBranches(ov, y), restructures: ov.Restructures(y)}
		for e := int32(0); e < edges; e++ {
			a.admissible = append(a.admissible, ov.EdgeAdmissible(e, y))
		}
		want[y] = a
		pending = append(pending, y)
	}
	// The edges admissible for two pending taxa, for each taxon and the next.
	both := make([]int, len(pending))
	for i := 1; i < len(pending); i++ {
		y, z := pending[i-1], pending[i]
		for e := range want[y].admissible {
			if want[y].admissible[e] && want[z].admissible[e] {
				both[i]++
			}
		}
		if got := ov.CountBoth(y, z); got != both[i] {
			t.Fatalf("%s: %d edges admissible for %d and %d, CountBoth says %d", ctx, both[i], y, z, got)
		}
	}
	bookings, split := slices.Clone(ov.bookings), ov.patch.k
	depth, base := tr.Depth(), int32(tr.agile.NumEdges())
	if n := ov.Materialize(); n != len(bookings) || ov.Len() != 0 {
		t.Fatalf("%s: Materialize made %d of %d bookings and kept %d", ctx, n, len(bookings), ov.Len())
	}
	for k, b := range bookings {
		u := tr.undo[depth+k]
		id := base + 2*int32(k)
		if u.taxon != b.taxon || u.edge != b.edge || min(u.half, u.pendant) != id || max(u.half, u.pendant) != id+1 {
			t.Fatalf("%s: booking %d (%d at %d) made %d at %d with edges %d and %d, not %d and %d",
				ctx, k, b.taxon, b.edge, u.taxon, u.edge, u.half, u.pendant, id, id+1)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("%s: after Materialize: %v", ctx, err)
	}
	for i := 1; i < len(pending); i++ {
		if got := tr.CountAllowedBoth(pending[i-1], pending[i]); got != both[i] {
			t.Fatalf("%s: under %v, %d edges admissible for %d and %d, the overlay said %d", ctx, bookings, got, pending[i-1], pending[i], both[i])
		}
	}
	for y, a := range want {
		if got := tr.AllowedBranches(y); !slices.Equal(got, a.list) {
			t.Fatalf("%s: under %v, %d's branches are %v, the overlay listed %v", ctx, bookings, y, got, a.list)
		}
		if tr.PendingCount(y) != a.count || tr.CountAllowedBranches(y) != a.count {
			t.Fatalf("%s: under %v, %d's count is %d, the overlay's %d", ctx, bookings, y, tr.CountAllowedBranches(y), a.count)
		}
		for e, adm := range a.admissible {
			if tr.EdgeAdmissible(int32(e), y) != adm {
				t.Fatalf("%s: under %v, edge %d admissible for %d: %v, the overlay's %v", ctx, bookings, e, y, !adm, adm)
			}
		}
		if len(a.list) > 0 {
			if got := invalidates(tr, y, a.list[0]); got != a.restructures {
				t.Fatalf("%s: under %v, inserting %d invalidates a count: %v, Restructures says %v", ctx, bookings, y, got, a.restructures)
			}
		}
	}
	for range bookings {
		tr.RemoveTaxon()
	}
	// The insertions leave their mappings behind the live edges, right for
	// these bookings; a search reuses the ids for other insertions. Overwrite
	// them, so that no answer of the overlay can come from them.
	for _, cs := range tr.constraints {
		for e := tr.agile.NumEdges(); e < len(cs.m); e++ {
			cs.m[e] = NoCE
		}
	}
	for k, b := range bookings {
		if k == split {
			ov.BookSplit(b.taxon, b.edge)
		} else {
			ov.Book(b.taxon, b.edge)
		}
	}
}

// overlaidBranches is y's branch list in ov's overlaid state.
func overlaidBranches(ov *Overlay, y int) []int32 {
	return ov.AppendBookedBranches(ov.AppendRealBranches(nil, y), y)
}

// invalidates reports whether inserting pending taxon x at e drops the cached
// count of some other pending taxon instead of patching it. Every other
// pending taxon is given a cache entry first; a taxon of one constraint keeps
// none (its count is the constraint's own), so its validity flag, which
// nothing else reads, is borrowed.
func invalidates(tr *Terrace, x int, e int32) bool {
	var others []int
	for _, z := range tr.MissingTaxa() {
		if z == x || tr.agile.HasTaxon(z) {
			continue
		}
		others = append(others, z)
		if len(tr.byTaxon[z]) == 1 {
			tr.pendOK[z] = true
		} else {
			tr.PendingCount(z)
		}
	}
	tr.ExtendTaxon(x, e)
	dropped := slices.ContainsFunc(others, func(z int) bool { return !tr.pendOK[z] })
	tr.RemoveTaxon()
	for _, z := range others {
		if len(tr.byTaxon[z]) == 1 {
			tr.pendOK[z] = false
		}
	}
	return dropped
}

// TestOverlaySharedTaxon is the case of the overlay's rule no walk over the
// corpus need reach: a constraint holding x, y and z, none of whose taxa is
// in the agile tree. Booking x restructures nothing (it leaves the constraint
// one taxon short of active), but booking y after it would activate it, so
// Restructures must read the constraint's sCount with x's increment and
// refuse y, as inserting x for real and asking the Terrace does.
func TestOverlaySharedTaxon(t *testing.T) {
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
	ov := tr.Overlay()
	for _, w := range []int{x, y, z} {
		if ov.Restructures(w) {
			t.Fatalf("taxon %d restructures the initial state", w)
		}
	}
	for _, b := range overlaidBranches(ov, x) {
		ov.Book(x, b)
		if !ov.Restructures(y) || !ov.Restructures(z) {
			t.Fatalf("with X booked at %d, Y or Z does not restructure", b)
		}
		ov.Pop()
		tr.ExtendTaxon(x, b)
		if !ov.Restructures(y) || !invalidates(tr, y, tr.AllowedBranches(y)[0]) {
			t.Fatalf("with X at %d, Y does not restructure", b)
		}
		tr.RemoveTaxon()
	}
	// The rule holds on what the overlay books here, at every state a walk
	// passes through.
	rng := rand.New(rand.NewSource(3))
	for step := 0; step < 20 && walkStep(tr, rng); step++ {
		checkOverlay(t, tr, rng, 20, "shared-taxon stand")
	}
}

// TestOverlayNestsDeep: on a stand whose pending taxa P, Q, R and S each
// join one constraint alone, at the edge above (A,B), nothing restructures, a
// booking of one makes edges every other may take, and checkOverlay's walks
// nest bookings two and three deep: where a booking's root is the root of the
// booking whose edge it took, not that edge. T joins at the edge above (G,H),
// apart from the others.
func TestOverlayNestsDeep(t *testing.T) {
	taxa := tree.MustTaxa([]string{"A", "B", "C", "D", "E", "F", "G", "H", "P", "Q", "R", "S", "T"})
	cons := []*tree.Tree{tree.MustParse("(((A,B),(C,D)),((E,F),(G,H)));", taxa)}
	for _, x := range []string{"P", "Q", "R", "S"} {
		cons = append(cons, tree.MustParse("((((A,B),"+x+"),(C,D)),((E,F),(G,H)));", taxa))
	}
	cons = append(cons, tree.MustParse("(((A,B),(C,D)),((E,F),((G,H),T)));", taxa))
	tr, err := New(cons, 0)
	if err != nil {
		t.Fatal(err)
	}
	var st overlayStats
	for seed := int64(0); seed < 20; seed++ {
		st.add(checkOverlay(t, tr, rand.New(rand.NewSource(seed)), 12, "nesting stand"))
	}
	if st.refused != 0 || st.booked[2] == 0 || st.booked[3] == 0 {
		t.Fatalf("bookings by nesting depth 0, 1, 2, 3+: %v, %d refused; want some two and three deep, none refused",
			st.booked, st.refused)
	}
	t.Logf("bookings by nesting depth 0, 1, 2, 3+: %v", st.booked)
}

// TestOverlayMatchesInsertion walks stands of both corpus regimes and, at
// every state of the walk, holds an overlay walk from it against the
// insertions it books (checkOverlay).
func TestOverlayMatchesInsertion(t *testing.T) {
	var st overlayStats
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
				st.add(checkOverlay(t, tr, rng, 12, ds.Name))
				if !walkStep(tr, rng) {
					break
				}
			}
		}
	}
	booked := st.booked[0] + st.booked[1] + st.booked[2] + st.booked[3]
	if booked < 1000 || st.refused < 100 {
		t.Fatalf("%d bookings checked and %d insertions refused: both must occur, often", booked, st.refused)
	}
	t.Logf("%d bookings checked (by nesting depth 0, 1, 2, 3+: %v), %d of them splits, %d insertions refused", booked, st.booked, st.split, st.refused)
}
