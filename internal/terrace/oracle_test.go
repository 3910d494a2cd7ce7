package terrace

import (
	"fmt"
	"slices"

	"gentrius/internal/tree"
)

// The search-based code the word kernel and the anchor-path bits replaced,
// kept as the differential oracles of the tests (compareKernelScalar,
// FuzzAllowedEquiv, TestLocateStrategiesInterchangeable). Both read a Terrace
// between operations and keep their scratch to themselves.

// appendAllowedScalar is the scalar reference of AppendAllowedBranches: the
// smallest preimage among the active constraints containing x is enumerated
// by a flood from its near anchor, filtered by per-constraint mapping
// lookups, then sorted.
func (tr *Terrace) appendAllowedScalar(buf []int32, x int) []int32 {
	if tr.agile.HasTaxon(x) {
		panic("terrace: taxon already inserted")
	}
	var active []*constraintState
	var best *constraintState
	for _, ci := range tr.byTaxon[x] {
		cs := tr.constraints[ci]
		if cs.sCount < 2 {
			continue
		}
		active = append(active, cs)
		if best == nil || cs.cnt[cs.target[x]] < best.cnt[best.target[x]] {
			best = cs
		}
	}
	if best == nil {
		// Unconstrained so far: every agile edge is admissible.
		for e := int32(0); e < int32(tr.agile.NumEdges()); e++ {
			buf = append(buf, e)
		}
		return buf
	}
	a, ce, at := tr.agile, best.target[x], len(buf)
	seen := map[int32]bool{best.cedges[ce].aa: true}
	for stack := []int32{best.cedges[ce].aa}; len(stack) > 0; {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		adj, deg := a.Adjacency(v)
		for _, ed := range adj[:deg] {
			w := a.Other(ed, v)
			if best.m[ed] != ce || seen[w] {
				continue
			}
			seen[w] = true
			stack = append(stack, w)
			if !slices.ContainsFunc(active, func(cs *constraintState) bool { return cs.m[ed] != cs.target[x] }) {
				buf = append(buf, ed)
			}
		}
	}
	slices.Sort(buf[at:])
	return buf
}

// checkSplits re-derives, after an ExtendTaxon, the location of every common
// edge split the insertion made — the vertex q where the new leaf's branch
// meets ĉ's anchor path, the path edge leaving q toward the far anchor and
// the edge leaving q toward the leaf — with both search-based locators, and
// compares them with what the anchor-path bits produced: ĉ now ends at q, the
// far region (the split's first new common edge) is entered from q through
// the one, the leaf's region (its second) through the other.
func checkSplits(tr *Terrace) error {
	frame := &tr.undo[len(tr.undo)-1]
	xl := tr.agile.LeafNode(frame.taxon)
	for _, u := range frame.cs {
		if u.kind != cSplit {
			continue
		}
		cs := tr.constraints[u.ci]
		c1 := int32(len(cs.cedges)) - 2
		aa, q := cs.cedges[u.che].aa, cs.cedges[u.che].ab
		for name, locate := range map[string]func(*constraintState, int32, int32, int32, int32) (int32, int32, int32){
			"flood": tr.locateSplitPointDFS, "chains": tr.locateSplitPoint,
		} {
			rq, succ, xEdge := locate(cs, u.che, aa, u.oldAB, xl)
			if rq != q || cs.m[succ] != c1 || cs.m[xEdge] != c1+1 || !tr.incident(succ, q) || !tr.incident(xEdge, q) {
				return fmt.Errorf("constraint %d, taxon %d: split of common edge %d at vertex %d; the %s locator says (%d,%d,%d), mapped to %d and %d",
					u.ci, frame.taxon, u.che, q, name, rq, succ, xEdge, cs.m[succ], cs.m[xEdge])
			}
		}
	}
	return nil
}

func (tr *Terrace) incident(e, v int32) bool {
	a, b := tr.agile.EdgeEndpoints(e)
	return a == v || b == v
}

// locateSplitPoint finds q, the path edge leaving q toward ab and the edge
// leaving q toward the new leaf from the rooted orientation alone. The
// preimage of a common edge is a connected subtree of the agile tree, so the
// tree path between any two of its vertices stays inside it, and three
// parent-chain walks (aa→root, ab→first aa-marked vertex, xLeaf→first marked
// vertex) locate q in O(tree depth). che is not needed: no mapping is read.
func (tr *Terrace) locateSplitPoint(_ *constraintState, _ int32, aa, ab, xLeaf int32) (q, succEdge, xEdge int32) {
	rv, re := tr.rootedV, tr.rootedE
	orderA := map[int32]int{} // chain position of aa's ancestors
	for u := aa; u != tree.NoNode; u = rv[u] {
		orderA[u] = len(orderA)
	}
	arrB := map[int32]int32{} // edge toward ab, on ab's chain up to the junction
	belowL := map[int32]bool{}
	L := ab // becomes the junction of the two chains: LCA(aa, ab)
	arrive := tree.NoEdge
	for ; !has(orderA, L); L = rv[L] {
		belowL[L] = true
		arrB[L] = arrive
		arrive = re[L]
	}
	arrB[L] = arrive
	// Walk from the new leaf up to the first vertex on either chain.
	z, xArr := xLeaf, tree.NoEdge
	for !has(orderA, z) && !belowL[z] {
		xArr = re[z]
		z = rv[z]
	}
	switch {
	case belowL[z]:
		// On ab's chain strictly below L: that whole segment is on the
		// anchor path, and arrB points from z toward ab.
		return z, arrB[z], xArr
	case z == L:
		return L, arrB[L], xArr
	case orderA[z] < orderA[L]:
		// On aa's chain strictly below L: the parent edge points toward ab.
		return z, re[z], xArr
	default:
		// Met aa's chain above L, i.e. off the anchor path: the three paths
		// meet at L itself, and the leaf lies beyond L's parent edge.
		return L, arrB[L], re[L]
	}
}

func has[V any](m map[int32]V, k int32) bool { _, ok := m[k]; return ok }

// locateSplitPointDFS is the flood variant: inside what was ĉ's preimage
// before the split — now ĉ's, the far region's and the leaf's — a search from
// ab finds the anchor path to aa, and a search from the new leaf the first
// vertex on it.
func (tr *Terrace) locateSplitPointDFS(cs *constraintState, che int32, aa, ab, xLeaf int32) (q, succEdge, xEdge int32) {
	a := tr.agile
	c1 := int32(len(cs.cedges)) - 2
	inside := func(ed int32) bool { return cs.m[ed] == che || cs.m[ed] == c1 || cs.m[ed] == c1+1 }
	// Search from ab toward aa, recording parents: the parent direction is
	// then "toward ab", the successor orientation wanted.
	parentV, parentE := map[int32]int32{ab: tree.NoNode}, map[int32]int32{}
	for stack := []int32{ab}; !has(parentV, aa); {
		if len(stack) == 0 {
			panic("terrace: anchor path not found in preimage subgraph")
		}
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		adj, deg := a.Adjacency(v)
		for _, ed := range adj[:deg] {
			if w := a.Other(ed, v); inside(ed) && !has(parentV, w) {
				parentV[w], parentE[w] = v, ed
				stack = append(stack, w)
			}
		}
	}
	onPath := map[int32]bool{}
	for v := aa; v != tree.NoNode; v = parentV[v] {
		onPath[v] = true
	}
	// Search from the new leaf to the first path vertex.
	seen := map[int32]bool{xLeaf: true}
	for stack := []int32{xLeaf}; len(stack) > 0; {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		adj, deg := a.Adjacency(v)
		for _, ed := range adj[:deg] {
			w := a.Other(ed, v)
			if !inside(ed) || seen[w] {
				continue
			}
			if onPath[w] {
				return w, parentE[w], ed
			}
			seen[w] = true
			stack = append(stack, w)
		}
	}
	panic("terrace: new leaf not connected to anchor path in preimage subgraph")
}
