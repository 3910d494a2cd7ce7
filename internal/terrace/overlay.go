package terrace

import (
	"math/bits"
	"slices"

	"gentrius/internal/tree"
)

// Overlay is a write-back layer of booked insertions above a Terrace's real
// state: insertions a counting search makes on paper, where the accounting
// rule (incremental.go) already tells every count and admissible set of the
// state they lead to, so that the Terrace need not restructure anything for
// them. An insertion that restructures nothing changes a pending taxon's
// admissible set only additively: the two edges it makes are admissible for
// the taxon iff the edge they split is. So a booked insertion's two edge ids
// are admissible exactly where its root edge is — the real edge it descends
// from — and every answer of the overlaid state is the real state's, plus the
// bookings whose root edge is admissible.
//
// An insertion that restructures one pending taxon y by splitting its target
// common edge in one constraint (a Split, see Shape) is booked too
// (BookSplit): every other taxon keeps the additive rule, and the booking
// holds a split patch for y — y's admissible set after the split, read off
// the split rule without making it. One patch is held at a time. Where
// another insertion would restructure, the caller materializes the overlay:
// its bookings are made for real, in order, with the ids they were booked
// with.
//
// While bookings are held the Terrace itself must not change, except through
// Materialize. The storage is sized once, when the Terrace's overlay is first
// asked for (Terrace.Overlay): booking allocates nothing.
type Overlay struct {
	tr       *Terrace
	bookings []booking
	inc      []int32  // per constraint: its taxa booked (the sCount increments)
	booked   []uint64 // the taxa booked, as the words of a set
	gained   []uint64 // per booking, the set of pending taxa it gained 2 (as booked's words)
	gain     []int32  // per taxon: the booked ids admissible for it (frozen while booked)
	serial   uint64   // the bookings made so far, each booking's serial its number

	patch patch
	plan  plan
	// keys are regionKeys' keys of the preimage of common edge keyed.che of
	// constraint keyed.ci, found at the Terrace's keyed.changes.
	keys  []int32
	keyed struct {
		ci, che int32
		changes uint64
	}
}

// booking is one insertion booked on an overlay: taxon at edge, an id of the
// overlaid state, which descends from the real edge root.
type booking struct {
	taxon      int
	edge, root int32
	serial     uint64
}

// patch is the split patch a booking holds for the one taxon its insertion
// restructures: the taxon's admissible real edges after the split,
// ascending, and whether the booking's two ids — the half and the pendant —
// are admissible for it.
type patch struct {
	k, y int // the booking, and the taxon; -1 when no patch is held
	ids  [2]bool
	list []int32
}

// plan is what is the same at every branch of a taxon x whose insertion is a
// Split: the constraint ci and its common edge che the split cuts, the taxon
// y it re-targets, y's part after the split and y's admissible real edges.
// It holds while the Terrace and the bookings beneath stay put: it is found
// for the Terrace's changes and the bookings' number and top serial.
type plan struct {
	x       int
	changes uint64
	depth   int
	serial  uint64
	ci, che int32
	y       int
	ready   bool // part and list are found (BookSplit needs them, Shape not)
	part    int8
	list    []int32
}

// Shape is what inserting a pending taxon does to the other pending taxa's
// admissible sets (Overlay.Shape).
type Shape int8

const (
	// Additive: each gains the insertion's two edges iff the edge it goes in
	// at is admissible for it (the accounting rule's additive half).
	Additive Shape = iota + 1
	// Split: so does each but one taxon y, whose target common edge in one
	// constraint is the one the insertion splits (the shared-target clause).
	Split
	// Restructuring: anything else — an activation, or the clause firing for
	// several taxa or in several constraints.
	Restructuring
)

// Overlay returns the Terrace's overlay, empty the first time. Its storage
// is taken, like the state's, from a released Terrace's (see Release), so
// a search that books allocates nothing for it once warm; a Clone starts
// with an overlay of its own.
func (tr *Terrace) Overlay() *Overlay {
	if tr.ov.tr == nil {
		st, n, nc := tr.store, tr.taxa.Len(), len(tr.constraints)
		st.bookings = take(st.bookings, len(tr.missing))
		st.ovI32 = takeZeroed(st.ovI32, nc+n+3*2*n) // 2n: more ids than a tree of every taxon has edges
		w := len(tr.agile.LeafSet().Words())
		st.ovWords = takeZeroed(st.ovWords, w*(1+len(tr.missing)))
		i32 := st.ovI32
		tr.ov = Overlay{tr: tr, bookings: st.bookings[:0], inc: carve(&i32, nc, nc), gain: carve(&i32, n, n),
			keys: carve(&i32, 2*n, 2*n), booked: st.ovWords[:w:w], gained: st.ovWords[w:]}
		tr.ov.patch = patch{k: -1, y: -1, list: carve(&i32, 0, 2*n)}
		tr.ov.plan = plan{x: -1, list: carve(&i32, 0, 2*n)}
		tr.ov.keyed.ci = -1
	}
	return &tr.ov
}

// Len returns the number of insertions booked.
func (o *Overlay) Len() int { return len(o.bookings) }

// NextPending returns the least taxon from y on that is pending in the
// overlaid state, or -1: the pending taxa in ascending order, a word of the
// leaf set at a time.
func (o *Overlay) NextPending(y int) int {
	leaves := o.tr.agile.LeafSet().Words()
	for wi := y >> 6; wi < len(leaves); wi++ {
		w := ^(leaves[wi] | o.booked[wi])
		if wi == y>>6 {
			w &= ^uint64(0) << (y & 63)
		}
		if w != 0 {
			if x := wi<<6 + bits.TrailingZeros64(w); x < o.tr.taxa.Len() {
				return x
			}
			return -1
		}
	}
	return -1
}

// Restructures reports whether inserting pending taxon x into the overlaid
// state, at any of its edges, would change another pending taxon's admissible
// set other than additively: whether its Shape is not Additive.
func (o *Overlay) Restructures(x int) bool { return o.Shape(x) != Additive }

// Shape classes the insertion of pending taxon x into the overlaid state, at
// any of its edges, by the accounting rule (restructures) of each constraint
// holding x, read with the sCount the bookings give it. A constraint's real
// pending list holds its booked taxa too, inc of them: where that leaves x
// alone, it restructures nothing. The bookings change no target the rule
// reads: an additive booking moves none, and a split patch's taxon targeted
// the split common edge, which no other pending taxon targets, and targets a
// part of it, which none does either.
func (o *Overlay) Shape(x int) Shape {
	tr := o.tr
	shape, ci, y := Additive, int32(-1), -1
	for _, c := range tr.byTaxon[x] {
		cs, inc := tr.constraints[c], int(o.inc[c])
		s := cs.sCount + inc
		if s == 0 || len(cs.pending)-inc < 2 {
			continue
		}
		for _, z := range cs.pending {
			if int(z) == x || !cs.restructures(s, cs.target[x], z) || o.booked[z>>6]&(1<<(z&63)) != 0 {
				continue
			}
			if s == 1 || shape != Additive {
				return Restructuring
			}
			shape, ci, y = Split, c, int(z)
		}
	}
	if shape == Split {
		o.plan = plan{x: x, changes: tr.changes, depth: len(o.bookings), serial: o.top(),
			ci: ci, che: tr.constraints[ci].target[x], y: y, list: o.plan.list[:0]}
	}
	return shape
}

// top returns the serial of the last booking, 0 when none is held.
func (o *Overlay) top() uint64 {
	if len(o.bookings) == 0 {
		return 0
	}
	return o.bookings[len(o.bookings)-1].serial
}

// planOf returns the plan of x's split, found now unless it was for x under
// the state and bookings held. It panics where x's insertion is no Split.
func (o *Overlay) planOf(x int) *plan {
	if pl := &o.plan; pl.x == x && pl.changes == o.tr.changes && pl.depth == len(o.bookings) && pl.serial == o.top() {
		return pl
	}
	if o.Shape(x) != Split {
		panic("terrace: booking a split of a taxon whose insertion is no split")
	}
	return &o.plan
}

// CanSplit reports whether the split x's insertion makes (Shape(x) is
// Split) can be booked on the bookings held: none holds a patch, and none has
// its root edge in the preimage of the common edge the split cuts — its two
// edges would lie in the regions the split cuts, which the real tree does not
// hold. Elsewhere a booking's edges map where its root does, off that
// preimage. Where it cannot, the caller materializes the overlay first.
func (o *Overlay) CanSplit(x int) bool {
	if o.patch.k >= 0 {
		return false
	}
	pl := o.planOf(x)
	cs := o.tr.constraints[pl.ci]
	for _, b := range o.bookings {
		if cs.m[b.root] == pl.che {
			return false
		}
	}
	return true
}

// BookSplit books the insertion of pending taxon x at edge e, one of its
// admissible edges in the overlaid state, where Shape(x) is Split and
// CanSplit(x) holds; e is then a real edge. Every pending taxon but the one
// the split re-targets gains 2 iff e is admissible for it, as Book has it;
// the booking holds the re-targeted taxon's patch: its admissible real edges
// whose part of the split common edge, cut where e meets the anchor path, is
// its new target's, and each of the booking's two ids where the split puts it
// in that part and e is admissible for the taxon in its other constraints.
func (o *Overlay) BookSplit(x int, e int32) {
	tr := o.tr
	if e >= int32(tr.agile.NumEdges()) {
		panic("terrace: a split booked on a booked edge")
	}
	pl := o.planOf(x)
	cs := tr.constraints[pl.ci]
	if !pl.ready {
		ce := &cs.cedges[pl.che]
		p, py := cs.projection(x, ce), cs.projection(pl.y, ce)
		pl.part = cs.partOf(ce.ta, p, cs.ix.Dist(ce.ta, p), py)
		pl.list = tr.AppendAllowedBranches(pl.list[:0], pl.y)
		if k := &o.keyed; k.ci != pl.ci || k.che != pl.che || k.changes != tr.changes {
			tr.regionKeys(cs, pl.che, o.keys)
			k.ci, k.che, k.changes = pl.ci, pl.che, tr.changes
		}
		pl.ready = true
	}
	kb := o.keys[e]
	partE, partHalf := partX, partX
	if kb&1 == 1 {
		partE, partHalf = partFar, partTa
		if _, bEnd := tr.agile.EdgeEndpoints(e); cs.halfFar(e, bEnd) {
			partE, partHalf = partTa, partFar
		}
	}
	list := o.patch.list[:0]
	for _, f := range pl.list {
		part := regionPart(o.keys[f], kb)
		if f == e {
			part = partE
		}
		if part == pl.part {
			list = append(list, f)
		}
	}
	beside := tr.edgeAdmissibleBeside(e, pl.y, pl.ci)
	o.patch = patch{k: len(o.bookings), y: pl.y, list: list,
		ids: [2]bool{beside && partHalf == pl.part, beside && pl.part == partX}}
	o.Book(x, e)
}

// projection returns pending taxon y's projection onto common edge ce, its
// target: cached in proj, else a median query, which is then cached — it is
// y's projection in the state, as ExtendTaxon would cache it.
func (cs *constraintState) projection(y int, ce *cedge) int32 {
	if cs.proj[y] == tree.NoNode {
		cs.proj[y] = cs.ix.Median(ce.ta, ce.tb, cs.t.LeafNode(y))
	}
	return cs.proj[y]
}

// Book books the insertion of pending taxon x at edge e, one of its
// admissible edges in the overlaid state, where Restructures(x) is false.
// Every other pending taxon's count gains 2 iff e is admissible for it, and
// the booking notes which did, for Pop. (BookSplit books through it, its
// patch set: the patch's taxon gains what the patch says.)
func (o *Overlay) Book(x int, e int32) {
	root, k, p := o.root(e), len(o.bookings), &o.patch
	o.booked[x>>6] |= 1 << (x & 63)
	gained, n := o.gainedBy(k), o.tr.taxa.Len()
	for wi, l := range o.tr.agile.LeafSet().Words() {
		gained[wi] = 0
		for w := ^(l | o.booked[wi]); w != 0; w &= w - 1 {
			y := wi<<6 + bits.TrailingZeros64(w)
			if y >= n {
				break
			}
			if y != p.y && o.tr.EdgeAdmissible(root, y) {
				o.gain[y] += 2
				gained[wi] |= 1 << (y & 63)
			}
		}
	}
	if y := p.y; y >= 0 && o.booked[y>>6]&(1<<(y&63)) == 0 {
		// The patch's taxon: its ids by the patch where this booking holds it,
		// else by what the patch says of e.
		switch {
		case p.k == k:
			o.gain[y] += int32(btoi(p.ids[0]) + btoi(p.ids[1]))
		case o.EdgeAdmissible(e, y):
			o.gain[y] += 2
			gained[y>>6] |= 1 << (y & 63)
		}
	}
	for _, ci := range o.tr.byTaxon[x] {
		o.inc[ci]++
	}
	o.serial++
	o.bookings = append(o.bookings, booking{taxon: x, edge: e, root: root, serial: o.serial})
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Pop undoes the last booking.
func (o *Overlay) Pop() {
	k := len(o.bookings) - 1
	x := o.bookings[k].taxon
	o.bookings = o.bookings[:k]
	for _, ci := range o.tr.byTaxon[x] {
		o.inc[ci]--
	}
	for wi, w := range o.gainedBy(k) {
		for ; w != 0; w &= w - 1 {
			o.gain[wi<<6+bits.TrailingZeros64(w)] -= 2
		}
	}
	if p := &o.patch; p.k == k {
		o.gain[p.y] -= int32(btoi(p.ids[0]) + btoi(p.ids[1]))
		p.k, p.y = -1, -1
	}
	o.booked[x>>6] &^= 1 << (x & 63)
}

// gainedBy returns the words of booking k's set of the taxa it gained 2.
func (o *Overlay) gainedBy(k int) []uint64 {
	w := len(o.booked)
	return o.gained[k*w : (k+1)*w]
}

// Materialize makes the booked insertions for real, in the order they were
// booked and at the ids they were booked with, and empties the overlay. It
// returns how many it made.
func (o *Overlay) Materialize() int {
	n := len(o.bookings)
	if n == 0 {
		return 0
	}
	o.Reset()
	for _, b := range o.bookings[:n] { // Reset emptied the list, not its array
		o.tr.ExtendTaxon(b.taxon, b.edge)
	}
	return n
}

// Reset drops every booking, the Terrace untouched.
func (o *Overlay) Reset() {
	if len(o.bookings) == 0 {
		return
	}
	clear(o.booked)
	clear(o.inc)
	clear(o.gain)
	o.bookings = o.bookings[:0]
	o.patch.k, o.patch.y = -1, -1
}

// root returns the real edge overlaid edge e descends from: e itself, or the
// root of the booking whose insertion made it.
func (o *Overlay) root(e int32) int32 {
	ne := int32(o.tr.agile.NumEdges())
	if e < ne {
		return e
	}
	return o.bookings[(e-ne)/2].root
}

// Patched reports whether a split patch is held for pending taxon y: its
// real branches are then the patch's, not the Terrace's.
func (o *Overlay) Patched(y int) bool { return o.patch.y == y }

// PendingCount returns the number of admissible edges of pending taxon y in
// the overlaid state.
func (o *Overlay) PendingCount(y int) int {
	if y == o.patch.y {
		return len(o.patch.list) + int(o.gain[y])
	}
	return o.tr.PendingCount(y) + int(o.gain[y])
}

// CountBoth returns how many edges of the overlaid state are admissible for
// pending taxon y and for pending taxon z: among the real edges the
// Terrace's count, or the patch's edges admissible for the other, and every
// booked id admissible for both.
func (o *Overlay) CountBoth(y, z int) int {
	var n int
	switch p := &o.patch; {
	case y == p.y || z == p.y:
		other := y + z - p.y
		for _, f := range p.list {
			if o.tr.EdgeAdmissible(f, other) {
				n++
			}
		}
	default:
		n = o.tr.CountAllowedBoth(y, z)
	}
	for k := range o.bookings {
		for h := 0; h < 2; h++ {
			if o.admits(k, h, y) && o.admits(k, h, z) {
				n++
			}
		}
	}
	return n
}

// EdgeAdmissible reports whether edge e of the overlaid state is admissible
// for pending taxon y: a real edge where the Terrace (or y's patch) says so,
// a booked id where its booking admits y.
func (o *Overlay) EdgeAdmissible(e int32, y int) bool {
	ne := int32(o.tr.agile.NumEdges())
	switch {
	case e >= ne:
		return o.admits(int(e-ne)/2, int(e-ne)&1, y)
	case y == o.patch.y:
		_, ok := slices.BinarySearch(o.patch.list, e)
		return ok
	}
	return o.tr.EdgeAdmissible(e, y)
}

// admits reports whether the half (h 0) or the pendant (h 1) booking k made
// is admissible for pending taxon y: as the patch says where booking k holds
// y's, else whether its root edge is — whether it gained y. A taxon pending
// now was pending when every booking held was made.
func (o *Overlay) admits(k, h, y int) bool {
	if p := &o.patch; k == p.k && y == p.y {
		return p.ids[h]
	}
	return o.gainedBy(k)[y>>6]&(1<<(y&63)) != 0
}

// AppendRealBranches appends to buf pending taxon y's admissible real edges
// in the overlaid state, ascending: the Terrace's AppendAllowedBranches, or
// the patch's where one is held for y.
func (o *Overlay) AppendRealBranches(buf []int32, y int) []int32 {
	if y == o.patch.y {
		return append(buf, o.patch.list...)
	}
	return o.tr.AppendAllowedBranches(buf, y)
}

// AppendBookedBranches appends to buf the booked ids admissible for pending
// taxon y — gain[y] of them — in booking order, the half before the pendant,
// which is id order. Behind AppendRealBranches, the list is y's admissible
// edges in the overlaid state, as the Terrace would list them with the
// bookings made.
func (o *Overlay) AppendBookedBranches(buf []int32, y int) []int32 {
	ne := int32(o.tr.agile.NumEdges())
	for k, left := 0, o.gain[y]; left > 0; k++ {
		for h := 0; h < 2; h++ {
			if o.admits(k, h, y) {
				buf = append(buf, ne+2*int32(k)+int32(h))
				left--
			}
		}
	}
	return buf
}
