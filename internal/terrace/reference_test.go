package terrace

import (
	"fmt"

	"gentrius/internal/bitset"
	"gentrius/internal/tree"
)

// The initialiser this package shipped before the linear one, kept verbatim
// as the differential oracle (TestNewMatchesReference, FuzzNewEquiv): it
// matches chains by the string key of the S-split each one induces, one
// tree.Split per chain, and resolves every pending taxon's target by
// scanning all common edges.

// newReference is New with the reference initialiser.
func newReference(constraints []*tree.Tree, initialIdx int) (*Terrace, error) {
	tr, err := newShell(constraints, initialIdx)
	if err != nil {
		return nil, err
	}
	for _, cs := range tr.constraints {
		if err := tr.initConstraintRef(cs); err != nil {
			return nil, err
		}
	}
	tr.agile.Orient(0, tr.rootedV, tr.rootedE, make([]int32, tr.agile.NumNodes()), nil, nil)
	return tr, nil
}

// initConstraintRef builds S_i, the common edges with both anchor pairs,
// the agile-side mapping and the pending-taxon targets, from scratch, into
// the storage newShell laid out.
func (tr *Terrace) initConstraintRef(cs *constraintState) error {
	cs.s.CopyFrom(tr.agile.LeafSet())
	cs.s.IntersectWith(cs.y)
	cs.sCount = cs.s.Count()
	if cs.sCount < 2 {
		return nil
	}
	// Chain decomposition of the constraint tree w.r.t. S gives the common
	// edges with t-anchors; the same decomposition of the agile tree gives
	// a-anchors plus the full agile-side mapping. The two are matched by the
	// S-split each chain induces.
	tSplits, err := chainDecompose(cs.t, cs.s, func(id int, u, v int32) {
		cs.cedges = append(cs.cedges, cedge{ta: u, tb: v, aa: tree.NoNode, ab: tree.NoNode})
		cs.cnt = append(cs.cnt, 0)
	})
	if err != nil {
		return err
	}
	aSplits, err := chainDecompose(tr.agile, cs.s, nil)
	if err != nil {
		return err
	}
	if len(aSplits.chains) != len(tSplits.chains) {
		return fmt.Errorf("terrace: common subtree mismatch (%d vs %d chains): %w",
			len(aSplits.chains), len(tSplits.chains), ErrIncompatible)
	}
	// Map each agile chain to the t-side common edge with the same split,
	// orienting the agile anchors so that cedge.aa corresponds to the same
	// common-subtree vertex as cedge.ta (splits incrementally maintained by
	// ExtendTaxon rely on this correspondence).
	bySplit := make(map[string]int32, len(tSplits.chains))
	for id, ch := range tSplits.chains {
		bySplit[ch.splitKey] = int32(id)
	}
	for _, ch := range aSplits.chains {
		ce, ok := bySplit[ch.splitKey]
		if !ok {
			return fmt.Errorf("terrace: no matching split for a common-subtree edge: %w", ErrIncompatible)
		}
		if ch.uSideKey == tSplits.chains[ce].uSideKey {
			cs.cedges[ce].aa, cs.cedges[ce].ab = ch.u, ch.v
		} else {
			cs.cedges[ce].aa, cs.cedges[ce].ab = ch.v, ch.u
		}
		// The chain's path edges are exactly the anchor path of this common
		// edge; orient dir toward the ab anchor.
		cur := ch.u
		for _, pe := range ch.path {
			nxt := tr.agile.Other(pe, cur)
			if cs.cedges[ce].aa == ch.u {
				cs.dir[pe] = nxt
			} else {
				cs.dir[pe] = cur
			}
			cur = nxt
		}
	}
	// Agile-side mapping: every agile edge belongs to exactly one chain
	// (path edges) or hangs off one (assigned during decomposition).
	for e, chainID := range aSplits.edgeChain {
		if chainID < 0 {
			return fmt.Errorf("terrace: agile edge %d unassigned in chain decomposition", e)
		}
		ce, ok := bySplit[aSplits.chains[chainID].splitKey]
		if !ok {
			return fmt.Errorf("terrace: unmatched chain split")
		}
		cs.m[e] = ce
		cs.cnt[ce]++
		cs.preSet(ce, int32(e))
	}
	// Pending-taxon targets via strict-interior medians; the median itself is
	// the taxon's cached projection (the split point its insertion would use).
	pend := cs.y.Clone()
	pend.SubtractWith(cs.s)
	var terr error
	pend.ForEach(func(yTaxon int) {
		if terr != nil {
			return
		}
		ce, med := tr.resolveTarget(cs, int32(yTaxon))
		if ce == NoCE {
			terr = fmt.Errorf("terrace: no target common edge for taxon %d", yTaxon)
			return
		}
		cs.target[yTaxon] = ce
		cs.proj[yTaxon] = med
	})
	return terr
}

// chainResult describes the chain decomposition of a tree w.r.t. a leaf
// subset S: the significant vertices (Steiner-tree vertices of degree != 2)
// and the chains (paths between consecutive significant vertices), each with
// the normalized key of the S-split it induces.
type chainResult struct {
	chains    []chainInfo
	edgeChain []int32 // edge id -> chain id (only filled when fillEdges)
}

type chainInfo struct {
	u, v     int32
	splitKey string  // normalized (orientation-free) key of the S-split
	uSideKey string  // key of the S-taxa on u's side (orientation marker)
	path     []int32 // the chain's path edges in walk order from u to v
}

// chainDecompose computes the chain decomposition. If onChain is non-nil it
// is called once per chain in id order. The returned edgeChain assigns every
// edge of t (path edges and hanging-subtree edges) to its chain.
func chainDecompose(t *tree.Tree, s *bitset.Set, onChain func(id int, u, v int32)) (*chainResult, error) {
	n := t.NumNodes()
	res := &chainResult{edgeChain: make([]int32, t.NumEdges())}
	for i := range res.edgeChain {
		res.edgeChain[i] = -1
	}
	// Steiner degrees: prune leaves not in S iteratively.
	deg := make([]int8, n)
	removed := make([]bool, n)
	var queue []int32
	for vi := 0; vi < n; vi++ {
		deg[vi] = int8(t.Degree(int32(vi)))
		tx := t.NodeTaxon(int32(vi))
		if deg[vi] <= 1 && (tx < 0 || !s.Has(int(tx))) {
			queue = append(queue, int32(vi))
		}
	}
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		removed[v] = true
		adj := t.IncidentEdges(v)
		for i := 0; i < t.Degree(v); i++ {
			u := t.Other(adj[i], v)
			if removed[u] {
				continue
			}
			deg[u]--
			if deg[u] == 1 {
				tx := t.NodeTaxon(u)
				if tx < 0 || !s.Has(int(tx)) {
					queue = append(queue, u)
				}
			}
		}
	}
	// Walk chains from each significant vertex; create each chain once
	// (from the endpoint with the smaller node id... both endpoints are
	// significant; create from the one encountered first and dedupe with a
	// per-edge check).
	for vi := 0; vi < n; vi++ {
		if removed[vi] || deg[vi] == 2 || deg[vi] == 0 {
			continue
		}
		v := int32(vi)
		adj := t.IncidentEdges(v)
		for i := 0; i < t.Degree(v); i++ {
			e := adj[i]
			if res.edgeChain[e] >= 0 {
				continue
			}
			u0 := t.Other(e, v)
			if removed[u0] {
				continue
			}
			// Walk to the far significant vertex, collecting path edges.
			id := int32(len(res.chains))
			cur, ce := v, e
			pathEdges := []int32{e}
			for {
				nxt := t.Other(ce, cur)
				if deg[nxt] != 2 {
					cur = nxt
					break
				}
				nadj := t.IncidentEdges(nxt)
				for k := 0; k < t.Degree(nxt); k++ {
					e2 := nadj[k]
					if e2 != ce && !removed[t.Other(e2, nxt)] {
						cur, ce = nxt, e2
						pathEdges = append(pathEdges, e2)
						break
					}
				}
			}
			far := cur
			// Split key: S-taxa on v's side of the chain, normalized within S.
			side := t.Split(pathEdges[0])
			// Split returns taxa on pathEdges[0].a's side; orient to v's side.
			a, _ := t.EdgeEndpoints(pathEdges[0])
			if a != v {
				side.ComplementWithin()
			}
			side.IntersectWith(s)
			other := s.Clone()
			other.SubtractWith(side)
			uKey := side.Key()
			key := uKey
			if ok := other.Key(); ok < key {
				key = ok
			}
			res.chains = append(res.chains, chainInfo{u: v, v: far, splitKey: key, uSideKey: uKey, path: pathEdges})
			for _, pe := range pathEdges {
				res.edgeChain[pe] = id
			}
			if onChain != nil {
				onChain(int(id), v, far)
			}
		}
	}
	if len(res.chains) == 0 {
		return nil, fmt.Errorf("terrace: chain decomposition found no chains")
	}
	// Assign hanging-subtree edges: DFS from every path vertex into removed
	// or off-Steiner parts... Hanging edges connect a Steiner chain-interior
	// vertex to pruned subtrees. Sweep all unassigned edges: each hanging
	// subtree is reachable from exactly one assigned region; propagate by
	// DFS from chain path vertices through unassigned edges.
	for vi := 0; vi < n; vi++ {
		if removed[vi] {
			continue
		}
		v := int32(vi)
		adj := t.IncidentEdges(v)
		for i := 0; i < t.Degree(v); i++ {
			e := adj[i]
			if res.edgeChain[e] >= 0 {
				continue
			}
			u := t.Other(e, v)
			if !removed[u] {
				continue
			}
			// v is on a chain (deg[v]==2 interior); find its chain id from
			// one of its assigned incident edges.
			var cid int32 = -1
			for k := 0; k < t.Degree(v); k++ {
				if res.edgeChain[adj[k]] >= 0 {
					cid = res.edgeChain[adj[k]]
					break
				}
			}
			if cid < 0 {
				return nil, fmt.Errorf("terrace: hanging subtree attached to vertex with no assigned edge")
			}
			// Assign the whole hanging subtree.
			res.edgeChain[e] = cid
			stack := []int32{u}
			for len(stack) > 0 {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				wadj := t.IncidentEdges(w)
				for k := 0; k < t.Degree(w); k++ {
					e2 := wadj[k]
					if res.edgeChain[e2] >= 0 {
						continue
					}
					res.edgeChain[e2] = cid
					stack = append(stack, t.Other(e2, w))
				}
			}
		}
	}
	return res, nil
}
