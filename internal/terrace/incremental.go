package terrace

import "math/bits"

// Incremental admissible-branch accounting.
//
// The dynamic taxon-insertion heuristic asks, at every state transition, for
// |AllowedBranches(y)| of every pending taxon y. Computing each count from
// scratch rescans y's constraints and re-runs a preimage DFS; across the
// 10^5..10^7 states of a real run that rescan dominates the entire system.
// This layer maintains the counts incrementally instead:
//
//   - taxa contained in exactly one constraint tree never need a DFS: their
//     admissible set IS the target common edge's preimage, whose size is
//     already maintained in cs.cnt — an O(1) lookup (or NumEdges while the
//     constraint is inactive);
//   - for taxa in two or more constraints, a cached count is kept in sync
//     across ExtendTaxon/RemoveTaxon. Inserting x at edge e changes a
//     pending taxon y's admissible set in exactly one of two ways:
//     (a) structurally, when a constraint containing both x and y splits
//     y's target common edge, or a constraint containing y crosses the
//     |S_i| >= 2 activation threshold — those taxa are invalidated and
//     lazily recounted on next query; (b) additively, for every other
//     (clean) taxon: the two edges born from the insertion (the far half of
//     e and x's pendant) inherit e's mapping in every constraint not
//     containing x, so they are admissible for y iff e is — the cached
//     count gains exactly +2 or +0, decided by O(deg(y)) mapping lookups
//     with no traversal.
//
// RemoveTaxon applies the exact mirror (same invalidation rule read from
// the undo frame, -2/-0 evaluated in the restored state), so counts after a
// remove are byte-identical to the counts before the matching insert — the
// property that keeps stolen-task path replay deterministic. The taxon
// being removed needs no repair at all: LIFO discipline means its cached
// count was frozen at insertion time against exactly the state the removal
// restores.

// initIncremental builds the taxon→constraint index and its complement,
// fills the per-constraint pending-taxon lists newShell carved, and sets up
// the pending-count cache. Called once, by newShell, after tr.missing is
// computed.
func (tr *Terrace) initIncremental() {
	n, nc, st := tr.taxa.Len(), len(tr.constraints), tr.store
	// Both indices are filled constraint by constraint into per-taxon pieces
	// of one slab, sized by a counting pass whose counts follow the slab.
	st.inc = take(st.inc, n*nc+n)
	slab, in := st.inc[:n*nc:n*nc], st.inc[n*nc:] // in: constraints containing each taxon
	clear(in)
	total := 0
	for _, cs := range tr.constraints {
		for wi, w := range cs.y.Words() {
			for ; w != 0; w &= w - 1 {
				in[wi<<6+bits.TrailingZeros64(w)]++
				total++
			}
		}
	}
	st.lists = take(st.lists, 2*n)
	tr.byTaxon, tr.notByTaxon = st.lists[:n:n], st.lists[n:]
	inSlab, outSlab := slab[:total:total], slab[total:]
	for x := 0; x < n; x++ {
		tr.byTaxon[x] = carve(&inSlab, 0, int(in[x]))
		tr.notByTaxon[x] = carve(&outSlab, 0, nc-int(in[x]))
	}
	// The complement lists let the inherit paths of ExtendTaxon/RemoveTaxon
	// walk exactly the constraints that need the +2/-2 patch, with no
	// per-constraint membership test.
	for ci, cs := range tr.constraints {
		for wi, w := range cs.y.Words() {
			for m := w; m != 0; m &= m - 1 {
				x := wi<<6 + bits.TrailingZeros64(m)
				tr.byTaxon[x] = append(tr.byTaxon[x], int32(ci))
			}
			for m := ^w; m != 0; m &= m - 1 {
				x := wi<<6 + bits.TrailingZeros64(m)
				if x >= n {
					break
				}
				tr.notByTaxon[x] = append(tr.notByTaxon[x], int32(ci))
			}
		}
	}
	st.flags = takeZeroed(st.flags, 2*n)
	tr.pendOK, tr.pendListed = st.flags[:n:n], st.flags[n:]
	multi := 0
	for _, x := range tr.missing {
		if len(tr.byTaxon[x]) > 1 {
			multi++
		}
		for _, ci := range tr.byTaxon[x] {
			cs := tr.constraints[ci]
			cs.pendIdx[x] = int32(len(cs.pending))
			cs.pending = append(cs.pending, int32(x))
		}
	}
	// The pending lists never grow past their initial size (LIFO removal
	// restores exactly the taxa that were taken out), and cacheLive never
	// holds more than the multi-constraint missing taxa — so neither
	// allocates after construction.
	st.live = take(st.live, multi)
	tr.cacheLive = st.live[:0:multi]
}

// PendingCount returns len(AllowedBranches(x)) for a pending taxon x using
// the incremental accounting: O(1) for single-constraint taxa, a cached
// value kept exact across ExtendTaxon/RemoveTaxon for the rest, and a full
// recount only when the taxon was invalidated by a structural change. The
// result is always identical to a fresh CountAllowedBranches(x).
func (tr *Terrace) PendingCount(x int) int {
	cons := tr.byTaxon[x]
	if len(cons) == 1 {
		cs := tr.constraints[cons[0]]
		if cs.sCount < 2 {
			// The lone constraint is inactive: every agile edge is allowed.
			return tr.agile.NumEdges()
		}
		return int(cs.cnt[cs.target[x]])
	}
	if tr.pendOK[x] {
		return int(tr.pendCnt[x])
	}
	c := tr.CountAllowedBranches(x)
	tr.pendCnt[x] = int32(c)
	tr.pendOK[x] = true
	if !tr.pendListed[x] {
		tr.pendListed[x] = true
		tr.cacheIdx[x] = int32(len(tr.cacheLive))
		tr.cacheLive = append(tr.cacheLive, int32(x))
	}
	return c
}

// unlistCached removes an about-to-be-attached taxon's cacheLive slot (its
// frozen count stays in pendCnt/pendOK for the LIFO undo). Keeping attached
// taxa out of the list means the per-transition sweep never has to ask the
// agile tree whether an entry is still pending.
func (tr *Terrace) unlistCached(x int) {
	if !tr.pendListed[x] {
		return
	}
	i := tr.cacheIdx[x]
	last := int32(len(tr.cacheLive) - 1)
	lt := tr.cacheLive[last]
	tr.cacheLive[i] = lt
	tr.cacheIdx[lt] = i
	tr.cacheLive = tr.cacheLive[:last]
	tr.cacheIdx[x] = -1
}

// relistCached restores the cacheLive slot dropped by unlistCached once the
// matching RemoveTaxon has made the taxon pending again.
func (tr *Terrace) relistCached(x int) {
	if !tr.pendListed[x] {
		return
	}
	tr.cacheIdx[x] = int32(len(tr.cacheLive))
	tr.cacheLive = append(tr.cacheLive, int32(x))
}

// invalidate drops taxon y's cached count (no-op if none is cached).
func (tr *Terrace) invalidate(y int) {
	tr.pendOK[y] = false
}

// restructures is the structural half of the accounting rule, stated once:
// whether attaching a taxon of this constraint whose target common edge is
// che, the constraint holding s of the agile tree's taxa, changes pending
// taxon y's admissible set other than through the two newborn edges — the
// constraint crosses the activation threshold, or the common edge being split
// is y's target. RemoveTaxon asks the same question of the restored state,
// where the answer is the same; an Overlay asks it of the state its bookings
// would make.
func (cs *constraintState) restructures(s int, che int32, y int32) bool {
	return s == 1 || s >= 2 && cs.target[y] == che
}

// invalidateRestructured drops the cached counts of the constraint's pending
// taxa that a transition on common edge che restructures.
func (tr *Terrace) invalidateRestructured(cs *constraintState, che int32) {
	for _, y := range cs.pending {
		if cs.restructures(cs.sCount, che, y) {
			tr.invalidate(int(y))
		}
	}
}

// EdgeAdmissible reports whether agile edge e is admissible for pending
// taxon y in the current state: every active constraint containing y must
// map e to y's target common edge.
func (tr *Terrace) EdgeAdmissible(e int32, y int) bool {
	for _, ci := range tr.byTaxon[y] {
		cs := tr.constraints[ci]
		if cs.sCount < 2 {
			continue
		}
		if cs.m[e] != cs.target[y] {
			return false
		}
	}
	return true
}

// edgeAdmissibleBeside is EdgeAdmissible with constraint ci left out.
func (tr *Terrace) edgeAdmissibleBeside(e int32, y int, ci int32) bool {
	for _, c := range tr.byTaxon[y] {
		if cs := tr.constraints[c]; c != ci && cs.sCount >= 2 && cs.m[e] != cs.target[y] {
			return false
		}
	}
	return true
}

// adjustPendingCounts applies the additive half of the accounting after a
// state transition at edge e: every still-valid cached count changes by
// delta (+2 on insert, -2 on remove) iff e is admissible for the taxon.
// Structurally affected taxa were already invalidated by the per-constraint
// handlers, and the transitioning taxon itself is skipped because it is
// still attached to the agile tree when this runs.
func (tr *Terrace) adjustPendingCounts(e int32, delta int32) {
	// Sweep only pending taxa that actually hold a cache entry (attached taxa
	// were unlisted at insertion). Invalidated entries are compacted out of
	// cacheLive in passing (and unflagged so a future recount re-registers
	// them).
	live := tr.cacheLive
	k := int32(0)
	for _, y := range live {
		yi := int(y)
		if !tr.pendOK[yi] {
			tr.pendListed[yi] = false
			tr.cacheIdx[yi] = -1
			continue
		}
		live[k] = y
		tr.cacheIdx[yi] = k
		k++
		if tr.EdgeAdmissible(e, yi) {
			tr.pendCnt[yi] += delta
		}
	}
	tr.cacheLive = live[:k]
}
