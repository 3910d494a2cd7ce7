package terrace

import "math/bits"

// Overlay is a write-back layer of booked insertions above a Terrace's real
// state: insertions a counting search makes on paper, where the accounting
// rule (incremental.go) already tells every count and admissible set of the
// state they lead to, so that the Terrace need not restructure anything for
// them. An insertion that restructures nothing changes a pending taxon's
// admissible set only additively: the two edges it makes are admissible for
// the taxon iff the edge they split is. So a booked insertion's two edge ids
// are admissible exactly where its root edge is — the real edge it descends
// from — and every answer of the overlaid state is the real state's, plus the
// bookings whose root edge is admissible. Where an insertion would
// restructure, the caller materializes the overlay: its bookings are made for
// real, in order, with the ids they were booked with.
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
	gain     []int32  // per taxon: what the bookings add to its count (frozen while booked)
}

// booking is one insertion booked on an overlay: taxon at edge, an id of the
// overlaid state, which descends from the real edge root.
type booking struct {
	taxon      int
	edge, root int32
}

// Overlay returns the Terrace's overlay, empty the first time. Its storage
// is taken, like the state's, from a released Terrace's (see Release), so
// a search that books allocates nothing for it once warm; a Clone starts
// with an overlay of its own.
func (tr *Terrace) Overlay() *Overlay {
	if tr.ov.tr == nil {
		st, n, nc := tr.store, tr.taxa.Len(), len(tr.constraints)
		st.bookings = take(st.bookings, len(tr.missing))
		st.ovI32 = takeZeroed(st.ovI32, nc+n)
		w := len(tr.agile.LeafSet().Words())
		st.ovWords = takeZeroed(st.ovWords, w*(1+len(tr.missing)))
		tr.ov = Overlay{tr: tr, bookings: st.bookings[:0], inc: st.ovI32[:nc:nc], gain: st.ovI32[nc:],
			booked: st.ovWords[:w:w], gained: st.ovWords[w:]}
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
// set other than additively — the accounting rule (restructures) of each
// constraint holding x, read with the sCount the bookings give it. Where it
// does, x cannot be booked. A constraint's real pending list holds its booked
// taxa too, inc of them: where that leaves x alone, it restructures nothing.
func (o *Overlay) Restructures(x int) bool {
	tr := o.tr
	for _, ci := range tr.byTaxon[x] {
		cs, inc := tr.constraints[ci], int(o.inc[ci])
		s := cs.sCount + inc
		if s == 0 || len(cs.pending)-inc < 2 {
			continue
		}
		for _, y := range cs.pending {
			if int(y) != x && cs.restructures(s, cs.target[x], y) && o.booked[y>>6]&(1<<(y&63)) == 0 {
				return true
			}
		}
	}
	return false
}

// Book books the insertion of pending taxon x at edge e, one of its
// admissible edges in the overlaid state, where Restructures(x) is false.
// Every other pending taxon's count gains 2 iff e is admissible for it, and
// the booking notes which did, for Pop.
func (o *Overlay) Book(x int, e int32) {
	root := o.root(e)
	o.booked[x>>6] |= 1 << (x & 63)
	gained, n := o.gainedBy(len(o.bookings)), o.tr.taxa.Len()
	for wi, l := range o.tr.agile.LeafSet().Words() {
		gained[wi] = 0
		for w := ^(l | o.booked[wi]); w != 0; w &= w - 1 {
			y := wi<<6 + bits.TrailingZeros64(w)
			if y >= n {
				break
			}
			if o.tr.EdgeAdmissible(root, y) {
				o.gain[y] += 2
				gained[wi] |= 1 << (y & 63)
			}
		}
	}
	for _, ci := range o.tr.byTaxon[x] {
		o.inc[ci]++
	}
	o.bookings = append(o.bookings, booking{taxon: x, edge: e, root: root})
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

// PendingCount returns the number of admissible edges of pending taxon y in
// the overlaid state.
func (o *Overlay) PendingCount(y int) int { return o.tr.PendingCount(y) + int(o.gain[y]) }

// CountBoth returns how many edges of the overlaid state are admissible for
// pending taxon y and for pending taxon z: the Terrace's, and the two ids of
// each booking whose root edge is admissible for both.
func (o *Overlay) CountBoth(y, z int) int {
	n := o.tr.CountAllowedBoth(y, z)
	for k := range o.bookings {
		if o.gains(k, y) && o.gains(k, z) {
			n += 2
		}
	}
	return n
}

// EdgeAdmissible reports whether edge e of the overlaid state is admissible
// for pending taxon y: whether its root edge is.
func (o *Overlay) EdgeAdmissible(e int32, y int) bool {
	ne := int32(o.tr.agile.NumEdges())
	if e < ne {
		return o.tr.EdgeAdmissible(e, y)
	}
	return o.gains(int(e-ne)/2, y)
}

// gains reports whether booking k gained pending taxon y 2: whether its
// root edge is admissible for y. A taxon pending now was pending when every
// booking held was made.
func (o *Overlay) gains(k, y int) bool { return o.gainedBy(k)[y>>6]&(1<<(y&63)) != 0 }

// AppendBookedBranches appends to buf the two ids of each booking whose root
// edge is admissible for pending taxon y — gain[y]/2 of them — in booking
// order, which is id order. Behind Terrace.AppendAllowedBranches, the list is
// y's admissible edges in the overlaid state, as the Terrace would list them
// with the bookings made.
func (o *Overlay) AppendBookedBranches(buf []int32, y int) []int32 {
	ne := int32(o.tr.agile.NumEdges())
	for k, left := 0, o.gain[y]; left > 0; k++ {
		if o.gains(k, y) {
			id := ne + 2*int32(k)
			buf = append(buf, id, id+1)
			left -= 2
		}
	}
	return buf
}
