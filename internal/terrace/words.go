package terrace

// Word-parallel admissibility kernel.
//
// Per active constraint, pre is a packed, edge-indexed bitmap with one row
// per common edge: bit ed of row ce is set iff agile edge ed is live and
// cs.m[ed] == ce. Rows are lanes of preW words (wide enough for every agile
// edge id; a constraint on |Y_i| taxa has 2|Y_i|-3 of them, one per common
// edge it can ever hold), so the admissible set of a pending taxon x — the
// intersection over its active constraints of the preimage of target_i(x) —
// is the AND of one row per constraint, evaluated 64 edges per word operation. Bits come out
// in ascending edge-id order, which is exactly the deterministic order the
// parallel engine's positional branch split relies on, with no sort.
//
// The rows are maintained incrementally by the same insert/undo bookkeeping
// that maintains m (mapping.go): every write to cs.m[e] while the constraint
// is active is paired with a bit move, the two edges born from an insertion
// get their inherited row's bits set, and the exact LIFO undo clears them
// again. Invariants (checked by CheckInvariants):
//
//   - active constraint (sCount >= 2): for every live common edge ce,
//     row ce == { ed < NumEdges : m[ed] == ce }, and every row at or beyond
//     len(cedges) is all-zero;
//   - inactive constraint: every row except row 0 is all-zero (row 0 may
//     hold a stale fill from a previous activation; re-activation rewrites
//     it wholesale).
//
// The all-zero-beyond-live invariant is what lets splitCommonEdge take the
// two newborn rows without clearing them, and the live-edge-prefix invariant
// is what makes the AND exact with no end-of-universe masking.

import "fmt"

// preRow returns common edge ce's lane.
func (cs *constraintState) preRow(ce int32) []uint64 {
	return cs.pre[ce*cs.preW : (ce+1)*cs.preW]
}

func (cs *constraintState) preSet(ce, ed int32) {
	cs.pre[ce*cs.preW+ed>>6] |= 1 << uint(ed&63)
}

// preMove relocates edge ed's bit from row `from` to row `to` — the bitmap
// mirror of an m[ed] reassignment.
func (cs *constraintState) preMove(from, to, ed int32) {
	wi := ed >> 6
	b := uint64(1) << uint(ed&63)
	cs.pre[from*cs.preW+wi] &^= b
	cs.pre[to*cs.preW+wi] |= b
}

// preSetPair sets the bits of the two newborn edges e and e+1 in row ce.
// AttachLeaf allocates the half and the pendant consecutively, so the pair
// usually lands in one word.
func (cs *constraintState) preSetPair(ce, e int32) {
	base := ce * cs.preW
	if e&63 != 63 {
		cs.pre[base+e>>6] |= 3 << uint(e&63)
		return
	}
	cs.pre[base+e>>6] |= 1 << 63
	cs.pre[base+e>>6+1] |= 1
}

// preClearPair clears the bits of the two dying edges e and e+1 in row ce.
func (cs *constraintState) preClearPair(ce, e int32) {
	base := ce * cs.preW
	if e&63 != 63 {
		cs.pre[base+e>>6] &^= 3 << uint(e&63)
		return
	}
	cs.pre[base+e>>6] &^= 1 << 63
	cs.pre[base+e>>6+1] &^= 1
}

// preZeroRow clears common edge ce's lane in word strides.
func (cs *constraintState) preZeroRow(ce int32) {
	row := cs.preRow(ce)
	for i := range row {
		row[i] = 0
	}
}

// preFillRow0 rewrites row 0 to exactly {0, ..., numEdges-1} — the
// first-activation state where every agile edge maps to the single newborn
// common edge. The whole lane is written, clobbering any stale fill left by
// a previous activation at a different depth.
func (cs *constraintState) preFillRow0(numEdges int) {
	row := cs.pre[:cs.preW]
	full := numEdges >> 6
	for i := 0; i < full; i++ {
		row[i] = ^uint64(0)
	}
	for i := full; i < len(row); i++ {
		row[i] = 0
	}
	if r := numEdges & 63; r != 0 {
		row[full] = (1 << uint(r)) - 1
	}
}

// syncRows replays the lane updates of unaccounted insertion frames
// [cs.acct, upto): each such frame inserted a taxon outside cs, so its two
// newborn edges simply inherited the mapping of the subdivided edge — which
// is still what cs.m records for them (any later relabeling of cs's mapping
// happens only in frames containing one of cs's taxa, and those force a sync
// first). While the constraint is inactive the lanes are not maintained at
// all, so the watermark just advances.
func (tr *Terrace) syncRows(cs *constraintState, upto int32) {
	if cs.acct >= upto {
		return
	}
	if cs.sCount >= 2 {
		for d := cs.acct; d < upto; d++ {
			h := tr.undo[d].half
			cs.preSetPair(cs.m[h], h)
		}
	}
	cs.acct = upto
}

// allowedRows gathers (into a reused scratch slice) one preimage lane per
// active constraint containing pending taxon x: the row of x's target common
// edge. An empty result means x is unconstrained — every agile edge is
// admissible. The returned slices alias constraint state and are valid until
// the next Terrace operation.
func (tr *Terrace) allowedRows(x int) [][]uint64 {
	if tr.agile.HasTaxon(x) {
		panic("terrace: taxon already inserted")
	}
	rows := tr.rowsBuf[:0]
	depth := int32(len(tr.undo))
	for _, ci := range tr.byTaxon[x] {
		cs := tr.constraints[ci]
		if cs.sCount < 2 {
			continue
		}
		tr.syncRows(cs, depth)
		rows = append(rows, cs.preRow(cs.target[x]))
	}
	tr.rowsBuf = rows
	return rows
}

// laneWords returns how many words of each lane cover the live agile edges.
func (tr *Terrace) laneWords() int {
	return (tr.agile.NumEdges() + 63) >> 6
}

// checkPreimageLanes verifies the pre bitmap invariants of every constraint
// against a from-scratch rebuild, after forcing every lazy watermark current
// (syncing is a canonicalization, not a state change: it only applies row
// updates that any query would apply). Used by CheckInvariants.
func (tr *Terrace) checkPreimageLanes() error {
	for ci, cs := range tr.constraints {
		tr.syncRows(cs, int32(len(tr.undo)))
		if rows, bound := len(cs.pre)/int(cs.preW), 2*cs.y.Count()-3; rows != bound || len(cs.cedges) > rows {
			return fmt.Errorf("constraint %d: %d lanes for %d common edges, a constraint on %d taxa holds at most %d",
				ci, rows, len(cs.cedges), cs.y.Count(), bound)
		}
		liveRows := int32(len(cs.cedges))
		if cs.sCount < 2 {
			liveRows = 1 // row 0 may be stale; everything beyond must be clear
		}
		for ce := liveRows; int(ce) < len(cs.pre)/int(cs.preW); ce++ {
			for _, w := range cs.preRow(ce) {
				if w != 0 {
					return errPre(ci, int(ce), "stale bits beyond the live rows")
				}
			}
		}
		if cs.sCount < 2 {
			continue
		}
		nw := tr.laneWords()
		for ce := int32(0); ce < liveRows; ce++ {
			row := cs.preRow(ce)
			want := make([]uint64, len(row))
			for e := 0; e < tr.agile.NumEdges(); e++ {
				if cs.m[e] == ce {
					want[e>>6] |= 1 << uint(e&63)
				}
			}
			for i := range row {
				if row[i] != want[i] {
					if i < nw {
						return errPre(ci, int(ce), "lane disagrees with mapping")
					}
					return errPre(ci, int(ce), "bits beyond the live edge prefix")
				}
			}
		}
	}
	return nil
}

func errPre(ci, ce int, msg string) error {
	return fmt.Errorf("constraint %d: preimage lane %d: %s", ci, ce, msg)
}
