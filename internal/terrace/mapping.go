package terrace

import (
	"fmt"

	"gentrius/internal/tree"
)

// ExtendTaxon inserts taxon x into the agile tree at edge e and updates
// every double-edge mapping incrementally. The edge must be admissible for x
// (this is checked for constraints containing x and violations panic: the
// search only ever passes edges returned by AllowedBranches).
//
// The inverse operation is RemoveTaxon; insertions and removals follow
// strict LIFO discipline. Undo data lives in flat per-Terrace logs (edge ids
// re-mapped away from the split common edge, pending taxa re-targeted), so
// steady-state operation performs no allocations.
func (tr *Terrace) ExtendTaxon(x int, e int32) {
	// Reuse the undo frame slot (and its cs slice capacity) when available.
	n := len(tr.undo)
	if cap(tr.undo) > n {
		tr.undo = tr.undo[:n+1]
		tr.undo[n].cs = tr.undo[n].cs[:0]
	} else {
		tr.undo = append(tr.undo, undoFrame{})
	}
	frame := &tr.undo[n]
	frame.taxon = x
	frame.edge = e

	v, half, pendant := tr.agile.AttachLeaf(x, e)
	frame.half, frame.pendant = half, pendant
	// Maintain the rooted orientation: e=(a,b) became (a,v); exactly one of
	// a,b had e as its parent edge, and that side's chain now runs through v.
	tr.growScratch()
	l := tr.agile.LeafNode(x)
	aNode := tr.agile.Other(e, v)
	bNode := tr.agile.Other(half, v)
	if tr.rootedE[bNode] == e {
		tr.rootedV[v], tr.rootedE[v] = aNode, e
		tr.rootedV[bNode], tr.rootedE[bNode] = v, half
	} else {
		tr.rootedV[aNode], tr.rootedE[aNode] = v, e
		tr.rootedV[v], tr.rootedE[v] = bNode, half
	}
	tr.rootedV[l], tr.rootedE[l] = v, pendant
	// x is no longer pending: swap-remove it from each containing
	// constraint's pending list (restored by RemoveTaxon; list order is
	// immaterial — every consumer treats entries independently).
	for _, ci := range tr.byTaxon[x] {
		cs := tr.constraints[ci]
		i := cs.pendIdx[x]
		last := int32(len(cs.pending) - 1)
		lt := cs.pending[last]
		cs.pending[i] = lt
		cs.pendIdx[lt] = i
		cs.pending = cs.pending[:last]
		cs.pendIdx[x] = -1
	}
	tr.unlistCached(x)
	for _, ci := range tr.notByTaxon[x] {
		cs := tr.constraints[ci]
		if cs.sCount >= 2 {
			// The new edges inherit e's mapping; no undo entry is needed
			// (RemoveTaxon reads the inherited id back from cs.m[half]).
			ce := cs.m[e]
			cs.growM(pendant)
			cs.m[half] = ce
			cs.m[pendant] = ce
			cs.cnt[ce] += 2
			// The preimage lanes are NOT updated here: the newborn pair bits
			// are applied lazily by syncRows when the lanes are next read
			// (cs.m[half] keeps the inherited id until then).
			// The pendant hangs off the path; the subdivided edge keeps
			// its path status, shared with the half nearer the ab anchor.
			cs.dir[pendant] = tree.NoNode
			if cs.dir[e] != tree.NoNode {
				if cs.dir[e] == bNode {
					cs.dir[e] = v
					cs.dir[half] = bNode
				} else {
					cs.dir[half] = v
				}
			} else {
				cs.dir[half] = tree.NoNode
			}
		}
	}
	for _, ci := range tr.byTaxon[x] {
		cs := tr.constraints[ci]
		// Bring the lanes current through the frames before this one; the
		// split below maintains this frame's lane updates itself, so the
		// watermark lands at n+1 either way.
		tr.syncRows(cs, int32(n))
		cs.acct = int32(n + 1)
		switch cs.sCount {
		case 0:
			cs.s.Add(x)
			cs.sCount = 1
			frame.cs = append(frame.cs, cUndo{kind: cS0, ci: ci})
		case 1:
			frame.cs = append(frame.cs, tr.firstCommonEdge(ci, cs, x))
		default:
			// Fill the undo record in place: the frame slot is recycled and a
			// cUndo is large enough that the extra copies of return-by-value
			// show up in the step loop.
			k := len(frame.cs)
			if cap(frame.cs) > k {
				frame.cs = frame.cs[:k+1]
			} else {
				frame.cs = append(frame.cs, cUndo{})
			}
			tr.splitCommonEdge(&frame.cs[k], ci, cs, x, e, half, pendant, v, bNode)
		}
	}
	// Structurally affected taxa were invalidated by the handlers above;
	// every other cached count gains the two new edges iff e was admissible.
	tr.adjustPendingCounts(e, 2)
}

// RemoveTaxon undoes the most recent ExtendTaxon, restoring the exact prior
// state (including all id allocation), and returns the removed taxon.
func (tr *Terrace) RemoveTaxon() int {
	if len(tr.undo) == 0 {
		panic("terrace: RemoveTaxon at depth 0")
	}
	frame := &tr.undo[len(tr.undo)-1]
	l := tr.agile.LeafNode(frame.taxon)
	v := tr.rootedV[l]
	bNode := tr.agile.Other(frame.half, v)
	// Constraints not containing the taxon recorded no undo entry: their only
	// change was inheriting e's mapping onto the two new edges. Under LIFO
	// discipline cs.m[half] still holds the inherited id, and their sCount is
	// unchanged since the insert, so the insert-time condition re-evaluates
	// identically here. The path-direction fixup is the exact inverse of the
	// insert-time endpoint rewrite (b -> v becomes v -> b; the half's own
	// entries die with its id).
	depth := int32(len(tr.undo) - 1)
	for _, ci := range tr.notByTaxon[frame.taxon] {
		cs := tr.constraints[ci]
		if cs.sCount >= 2 {
			ce := cs.m[frame.half]
			cs.cnt[ce] -= 2
			// The lanes only saw this frame's pair bits if some query or
			// split synced past it; otherwise there is nothing to clear and
			// the watermark already sits at or below this frame.
			if cs.acct > depth {
				cs.preClearPair(ce, frame.half)
				cs.acct = depth
			}
			if cs.dir[frame.edge] == v {
				cs.dir[frame.edge] = bNode
			}
		} else if cs.acct > depth {
			// Inactive lanes carry no pair bits to clear, but the watermark
			// must drop below the popped frame so a future insertion reusing
			// this depth is not mistaken for already-accounted.
			cs.acct = depth
		}
	}
	for i := len(frame.cs) - 1; i >= 0; i-- {
		u := &frame.cs[i]
		cs := tr.constraints[u.ci]
		cs.acct = depth
		switch u.kind {
		case cS0:
			cs.s.Remove(frame.taxon)
			cs.sCount = 0
		case cFirst:
			cs.cedges = cs.cedges[:0]
			cs.cnt = cs.cnt[:0]
			cs.s.Remove(frame.taxon)
			cs.sCount = 1
			// The constraint deactivates: it stops restricting its pending
			// taxa, whose cached counts are therefore stale. (The taxon being
			// removed is still attached, hence not in the pending list.)
			tr.invalidateRestructured(cs, NoCE)
		case cSplit:
			// Every moved bit returns to ĉ's lane, and the c1/c2 lanes lose
			// all of theirs — so set bits into one hoisted row and zero the
			// two dying lanes in word strides rather than per-edge moves.
			rowChe := cs.preRow(u.che)
			for _, edge := range tr.moveLog[u.movedStart:u.movedEnd] {
				cs.m[edge] = u.che
				rowChe[edge>>6] |= 1 << uint(edge&63)
			}
			tr.moveLog = tr.moveLog[:u.movedStart]
			cs.preZeroRow(int32(len(cs.cedges) - 2))
			cs.preZeroRow(int32(len(cs.cedges) - 1))
			// The two newborn edges die with the insertion: clear their bits
			// from ĉ's lane (the move-log restore above put them back there).
			cs.preClearPair(u.che, frame.half)
			cs.cedges = cs.cedges[:len(cs.cedges)-2]
			cs.cnt = cs.cnt[:len(cs.cnt)-2]
			ce := &cs.cedges[u.che]
			ce.tb, ce.ab = u.oldTB, u.oldAB
			cs.cnt[u.che] = u.oldCnt
			for _, y := range tr.tgLog[u.tgStart:u.tgEnd] {
				cs.target[y] = u.che
			}
			tr.tgLog = tr.tgLog[:u.tgStart]
			// Projections moved onto c2 revert to the split vertex — their
			// projection onto ĉ's restored anchor path.
			for _, y := range tr.projLog[u.pjStart:u.pjEnd] {
				cs.proj[y] = u.splitP
			}
			tr.projLog = tr.projLog[:u.pjStart]
			// Path membership a split turned on reverts to off; the ab-ward
			// endpoint of the insertion edge reverts from the vanishing
			// vertex, as in the inherit case.
			for _, ed := range tr.pathLog[u.pbStart:u.pbEnd] {
				cs.dir[ed] = tree.NoNode
			}
			tr.pathLog = tr.pathLog[:u.pbStart]
			if cs.dir[frame.edge] == v {
				cs.dir[frame.edge] = bNode
			}
			cs.s.Remove(frame.taxon)
			cs.sCount--
			// Mirror of the insert-time invalidation: the taxa whose target
			// common edge the insert split are exactly those targeting ĉ in
			// the restored state.
			tr.invalidateRestructured(cs, u.che)
		}
	}
	// Mirror of the insert-time +2 sweep, evaluated against the restored
	// mappings (the removed taxon is still attached, so it is skipped; its
	// own cached count was frozen against exactly the state this restores).
	tr.adjustPendingCounts(frame.edge, -2)
	taxon := frame.taxon
	// The taxon becomes pending again: re-append to each containing
	// constraint's pending list (inverse of the insert-time swap-removal).
	for _, ci := range tr.byTaxon[taxon] {
		cs := tr.constraints[ci]
		cs.pendIdx[taxon] = int32(len(cs.pending))
		cs.pending = append(cs.pending, int32(taxon))
	}
	tr.relistCached(taxon)
	tr.undo = tr.undo[:len(tr.undo)-1]
	// Restore the rooted orientation (exact inverse of the insert-time case
	// split; entries for the two vanishing nodes become don't-cares).
	{
		a := tr.agile.Other(frame.edge, v)
		if tr.rootedE[v] == frame.edge {
			tr.rootedV[bNode], tr.rootedE[bNode] = a, frame.edge
		} else {
			tr.rootedV[a], tr.rootedE[a] = bNode, frame.edge
		}
	}
	tr.agile.DetachLeaf(taxon)
	return taxon
}

// firstCommonEdge handles the |S_i| 1 -> 2 transition: the common subtree is
// born as a single edge between the previously lone shared taxon and x; all
// agile edges map onto it, and all pending taxa target it.
func (tr *Terrace) firstCommonEdge(ci int32, cs *constraintState, x int) cUndo {
	s0 := cs.s.Min()
	cs.cedges = append(cs.cedges, cedge{
		ta: cs.t.LeafNode(s0), tb: cs.t.LeafNode(x),
		aa: tr.agile.LeafNode(s0), ab: tr.agile.LeafNode(x),
	})
	cs.growM(int32(tr.agile.NumEdges() - 1))
	for i := 0; i < tr.agile.NumEdges(); i++ {
		cs.m[i] = 0
		cs.dir[i] = tree.NoNode
	}
	cs.cnt = append(cs.cnt, int32(tr.agile.NumEdges()))
	cs.preFillRow0(tr.agile.NumEdges())
	// The newborn common edge's anchor path is the tree path between the two
	// shared leaves, read off the rooted orientation (aa's chain to the root
	// is stamped, ab's chain is walked to the junction, both chain prefixes
	// are the path). No undo data is needed: re-activation rebuilds all bits.
	aa := tr.agile.LeafNode(s0)
	ab := tr.agile.LeafNode(x)
	tr.stamp++
	vis := tr.stamp
	for u := aa; u != tree.NoNode; u = tr.rootedV[u] {
		tr.mark[u] = vis
	}
	j := ab
	for tr.mark[j] != vis {
		j = tr.rootedV[j]
	}
	for u := ab; u != j; u = tr.rootedV[u] {
		cs.dir[tr.rootedE[u]] = u
	}
	for u := aa; u != j; u = tr.rootedV[u] {
		cs.dir[tr.rootedE[u]] = tr.rootedV[u]
	}
	// The constraint is about to become active and restrict its pending taxa
	// for the first time, so their cached counts are stale.
	tr.invalidateRestructured(cs, NoCE)
	// Every one of them now targets the newborn common edge (x and s0 are
	// attached, hence absent from the pending list). Projections are left lazy
	// rather than paying a median per taxon on an activation that may be undone
	// immediately; the first split touching a taxon computes and caches its
	// projection.
	for _, y := range cs.pending {
		cs.target[y] = 0
		cs.proj[y] = tree.NoNode
	}
	cs.s.Add(x)
	cs.sCount = 2
	return cUndo{kind: cFirst, ci: ci}
}

// splitCommonEdge handles the general |S_i| >= 2 insertion: the target
// common edge ĉ of x splits into three (ta-side part keeping id ĉ, far part
// c1, and x's pendant part c2) on both the constraint side (via the cached
// projection, falling back to a median query on the static tree) and the
// agile side (via the anchor-path bits, with no searching beyond the regions
// actually relabeled), and pending taxa targeting ĉ are re-resolved. v is
// the insertion vertex subdividing e and bNode the far endpoint of the half
// edge. The undo record is written into *u (every field is assigned: the
// caller hands over a recycled slot).
func (tr *Terrace) splitCommonEdge(u *cUndo, ci int32, cs *constraintState, x int, e, half, pendant, v, bNode int32) {
	che := cs.target[x]
	if che == NoCE {
		panic(fmt.Sprintf("terrace: taxon %d has no target for constraint %d", x, ci))
	}
	if cs.m[e] != che {
		panic(fmt.Sprintf("terrace: inserting taxon %d at inadmissible edge %d (constraint %d)", x, e, ci))
	}
	u.kind, u.ci, u.che = cSplit, ci, che
	ce := &cs.cedges[che]
	u.oldTB, u.oldAB, u.oldCnt = ce.tb, ce.ab, cs.cnt[che]
	u.movedStart = int32(len(tr.moveLog))
	u.tgStart = int32(len(tr.tgLog))
	u.pbStart = int32(len(tr.pathLog))
	u.pjStart = int32(len(tr.projLog))

	// New edges provisionally extend ĉ's preimage.
	cs.growM(pendant)
	cs.m[half] = che
	cs.m[pendant] = che
	cs.cnt[che] += 2
	cs.preSetPair(che, half)

	// Constraint side: split at p, x's projection onto ĉ's anchor path. The
	// cached value (maintained since initialization, restored exactly by the
	// LIFO undo) makes the median query a rare cold-start fallback.
	lx := cs.t.LeafNode(x)
	p := cs.proj[x]
	if p == tree.NoNode {
		p = cs.ix.Median(ce.ta, ce.tb, lx)
		// Correct in the restored state too (same target, same anchors), so
		// sibling-branch re-insertions of x skip the query. No undo needed.
		cs.proj[x] = p
	}
	if p == ce.ta || p == ce.tb {
		panic("terrace: attachment median at a common-subtree vertex")
	}
	u.splitP = p
	c1 := int32(len(cs.cedges))
	c2 := c1 + 1
	cs.cedges = append(cs.cedges,
		cedge{ta: p, tb: u.oldTB},
		cedge{ta: p, tb: lx},
	)
	cs.cnt = append(cs.cnt, 0, 0)
	ce = &cs.cedges[che] // reacquire: append may have moved the backing array
	ce.tb = p

	// Agile side: identify q (where x's branch meets the aa..ab anchor path
	// inside ĉ's preimage) and relabel the x-side region to c2 and the far
	// region to c1. The anchor-path bits make this search-free: if the
	// insertion edge carried a path bit, the insertion vertex IS q and the
	// x-side region is exactly {pendant}; otherwise one bounded sweep of the
	// x-side region finds q while relabeling it.
	xl := tr.agile.LeafNode(x)
	var q, succEdge, moved2 int32
	if cs.dir[e] != tree.NoNode {
		q = v
		if cs.dir[e] == bNode {
			// ab lies beyond b: the far region is entered through the half.
			cs.dir[e] = v
			cs.dir[half] = bNode
			succEdge = half
		} else {
			// ab lies beyond a: e keeps pointing at it; the half joins the
			// aa-side path.
			cs.dir[half] = v
			succEdge = e
		}
		cs.m[pendant] = c2
		cs.preMove(che, c2, pendant)
		tr.moveLog = append(tr.moveLog, pendant)
		moved2 = 1
		cs.dir[pendant] = xl
	} else {
		// Clear the newborn edges' stale directions before the sweep reads them.
		cs.dir[half] = tree.NoNode
		cs.dir[pendant] = tree.NoNode
		q, moved2 = tr.relabelXRegion(cs, che, c2, xl)
		succEdge = tree.NoEdge
		adj, deg := tr.agile.Adjacency(q)
		for i := 0; i < deg; i++ {
			ed := adj[i]
			if d := cs.dir[ed]; cs.m[ed] == che && d != tree.NoNode && d != q {
				succEdge = ed
				break
			}
		}
		if succEdge == tree.NoEdge {
			panic("terrace: no ab-ward anchor-path edge at split vertex")
		}
	}
	moved1 := tr.assignRegion(cs, che, c1, q, succEdge)
	cs.cnt[c1] = moved1
	cs.cnt[c2] = moved2
	cs.cnt[che] -= moved1 + moved2
	cs.cedges[c1].aa, cs.cedges[c1].ab = q, u.oldAB
	cs.cedges[c2].aa, cs.cedges[c2].ab = q, xl
	cs.cedges[che].ab = q
	u.movedEnd = int32(len(tr.moveLog))
	u.pbEnd = int32(len(tr.pathLog))

	// Re-resolve pending taxa that targeted ĉ, against the OLD anchors. The
	// distance/LCA setup is only paid when some taxon actually targets ĉ —
	// in deep states that list is almost always empty.
	if pend := cs.pendingOn(tr, che, x); len(pend) > 0 {
		ta := cs.cedges[che].ta
		distAP := cs.ix.Dist(ta, p)
		lab, haveLab := int32(0), false
		for _, y := range pend {
			// y's target common edge is being split: its admissible set changed
			// structurally, so the cached count cannot be patched additively.
			tr.invalidate(int(y))
			py := cs.proj[y]
			if py == tree.NoNode {
				if !haveLab {
					lab, haveLab = cs.ix.LCA(ta, u.oldTB), true
				}
				py = cs.ix.MedianPre(lab, ta, u.oldTB, cs.t.LeafNode(int(y)))
			}
			var nt int32
			switch {
			case py == p:
				// y re-projects onto the x-side part: its projection moves off
				// the old path, so it is logged and restored to p on undo.
				nt = c2
				cs.proj[y] = cs.ix.Median(p, lx, cs.t.LeafNode(int(y)))
				tr.projLog = append(tr.projLog, y)
			case cs.ix.Dist(ta, py) < distAP:
				nt = che
				cs.proj[y] = py // still y's projection after the undo, too
			default:
				nt = c1
				cs.proj[y] = py
			}
			if nt != che {
				cs.target[y] = nt
				tr.tgLog = append(tr.tgLog, y)
			}
		}
	}
	u.tgEnd = int32(len(tr.tgLog))
	u.pjEnd = int32(len(tr.projLog))

	cs.s.Add(x)
	cs.sCount++
}

// pendingOn collects (into a shared scratch buffer) the taxa of the
// constraint that are still missing from the agile tree, differ from x, and
// currently target common edge che — those the split restructures (the
// constraint is active here). The pending list already excludes attached taxa
// (x among them — ExtendTaxon swap-removes it before the constraint handlers
// run), so only the target filter remains.
func (cs *constraintState) pendingOn(tr *Terrace, che int32, x int) []int32 {
	buf := tr.pendBuf[:0]
	for _, y := range cs.pending {
		if cs.restructures(che, y) {
			buf = append(buf, y)
		}
	}
	tr.pendBuf = buf
	return buf
}

// relabelXRegion sweeps the x-side region of ĉ's preimage — the component of
// the new leaf after removing the (not yet known) split vertex q — relabeling
// its edges to c2 and recording them in the move log. The region meets the
// anchor path only at q, and every ĉ-mapped edge incident to q is either the
// region edge just traversed or one of q's two path edges — so a popped
// vertex carrying a ĉ-mapped anchor-path edge IS q, and the sweep stops there
// without expanding past it. Afterwards the q..leaf chain becomes c2's anchor
// path; pre-existing edges whose bits turn on are logged so the undo can
// clear them (bits of the two newborn edges die with their ids).
func (tr *Terrace) relabelXRegion(cs *constraintState, che, c2, xl int32) (q, moved int32) {
	a := tr.agile
	parentV, parentE := tr.parentV, tr.parentE
	rowChe, rowC2 := cs.preRow(che), cs.preRow(c2)
	parentE[xl] = tree.NoEdge
	stack := append(tr.dfsBuf[:0], xl)
	q = tree.NoNode
	// No visited marks: relabeling an edge out of ĉ is the mark — the only
	// way back to a visited vertex is the edge it was discovered through,
	// which the pe comparison skips without a mapping load. Leaves are never
	// pushed: their only edge is the one they were discovered through, and
	// the q..xl path walk below never visits them (q is interior).
	for len(stack) > 0 {
		w := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		pe := parentE[w]
		adj, deg := a.Adjacency(w)
		for i := 0; i < deg; i++ {
			ed := adj[i]
			if ed == pe || cs.m[ed] != che {
				continue
			}
			if cs.dir[ed] != tree.NoNode {
				q = w
				break // region boundary: q's remaining ĉ-edges are the path
			}
			cs.m[ed] = c2
			b := uint64(1) << uint(ed&63)
			rowChe[ed>>6] &^= b
			rowC2[ed>>6] |= b
			tr.moveLog = append(tr.moveLog, ed)
			moved++
			z := a.Other(ed, w)
			if a.Degree(z) == 1 {
				continue
			}
			parentV[z], parentE[z] = w, ed
			stack = append(stack, z)
		}
	}
	tr.dfsBuf = stack[:0]
	if q == tree.NoNode {
		panic("terrace: x-side region does not reach the anchor path")
	}
	// Mark c2's anchor path (q .. xl), directed leaf-ward (= ab-ward).
	newEdges := int32(a.NumEdges() - 2) // first newborn edge id (the half)
	for w := q; w != xl; w = parentV[w] {
		ed := parentE[w]
		cs.dir[ed] = parentV[w]
		if ed < newEdges {
			tr.pathLog = append(tr.pathLog, ed)
		}
	}
	return q, moved
}

// assignRegion re-maps the contiguous region of ĉ's preimage reachable from
// q through startEdge (without crossing back through q) to newCE, appending
// every moved edge to the move log, and returns the number of edges moved.
func (tr *Terrace) assignRegion(cs *constraintState, che, newCE, q, startEdge int32) int32 {
	a := tr.agile
	moved := int32(0)
	rowChe, rowNew := cs.preRow(che), cs.preRow(newCE)
	parentE := tr.parentE // free after relabelXRegion; tracks arrival edges
	cs.m[startEdge] = newCE
	b := uint64(1) << uint(startEdge&63)
	rowChe[startEdge>>6] &^= b
	rowNew[startEdge>>6] |= b
	tr.moveLog = append(tr.moveLog, startEdge)
	moved++
	stack := tr.dfsBuf[:0]
	if start := a.Other(startEdge, q); a.Degree(start) != 1 {
		parentE[start] = startEdge
		stack = append(stack, start)
	}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		pe := parentE[v]
		adj, deg := a.Adjacency(v)
		for i := 0; i < deg; i++ {
			ed := adj[i]
			if ed == pe || cs.m[ed] != che {
				continue
			}
			cs.m[ed] = newCE
			b := uint64(1) << uint(ed&63)
			rowChe[ed>>6] &^= b
			rowNew[ed>>6] |= b
			tr.moveLog = append(tr.moveLog, ed)
			moved++
			z := a.Other(ed, v)
			if a.Degree(z) == 1 {
				continue
			}
			parentE[z] = ed
			stack = append(stack, z)
		}
	}
	tr.dfsBuf = stack[:0]
	return moved
}

// growM extends the agile-side mapping array (and the parallel anchor-path
// arrays) to cover edge id e.
func (cs *constraintState) growM(e int32) {
	for int32(len(cs.m)) <= e {
		cs.m = append(cs.m, NoCE)
		cs.dir = append(cs.dir, tree.NoNode)
	}
}

// growScratch sizes the traversal scratch buffers (and the rooted-orientation
// arrays) to the agile tree.
func (tr *Terrace) growScratch() {
	n := tr.agile.NumNodes() + 2
	for len(tr.mark) < n {
		tr.mark = append(tr.mark, 0)
		tr.parentV = append(tr.parentV, tree.NoNode)
		tr.parentE = append(tr.parentE, tree.NoEdge)
		tr.rootedV = append(tr.rootedV, tree.NoNode)
		tr.rootedE = append(tr.rootedE, tree.NoEdge)
	}
}
