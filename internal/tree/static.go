package tree

import "math/bits"

// StaticIndex answers lowest-common-ancestor, distance, median and
// path-position queries on a tree that will not be modified after the index
// is built. Gentrius builds one per constraint tree: the constraint-side
// half of the double-edge mapping resolves pending-taxon targets with
// median queries against the static constraint tree.
//
// LCA queries run in O(1) via a sparse-table range minimum over the preorder
// numbering. With tin[u] < tin[v], every vertex numbered in (tin[u], tin[v]]
// lies below LCA(u, v), and the LCA's child towards v is one of them, so the
// least preorder number of a parent over that range is the LCA's. Level 0 of
// the table holds tin[parent[order[i]]], level k the minimum of 2^k
// consecutive level-0 entries; every level is n entries wide.
type StaticIndex struct {
	parent []int32
	pedge  []int32 // edge to parent
	depth  []int32
	tin    []int32 // preorder number of each node
	order  []int32 // node of each preorder number
	sp     []int32 // level k at sp[k*n:], n = len(tin)
}

// NewStaticIndex builds the index, rooting the tree at node 0. It allocates
// twice whatever the size of the tree: the index, and one int32 slab for the
// per-node arrays and the table.
func NewStaticIndex(t *Tree) *StaticIndex {
	ix := make([]StaticIndex, 1)
	BuildStaticIndexes(ix, []*Tree{t}, nil, nil)
	return &ix[0]
}

// BuildStaticIndexes builds an index on each tree of ts into ixs[i], rooted
// at node roots[i] (at node 0 when roots is nil), all in one int32 slab: slab
// itself when its capacity holds them, otherwise one allocated to their size.
// It returns that slab; the indexes use it, so it must not be written while
// they are in use. Every entry they read is written, so slab may hold
// anything.
func BuildStaticIndexes(ixs []StaticIndex, ts []*Tree, roots, slab []int32) []int32 {
	need := 0
	for _, t := range ts {
		need += indexLen(len(t.nodes))
	}
	if cap(slab) < need {
		slab = make([]int32, need)
	}
	slab = slab[:need]
	rest := slab
	for i, t := range ts {
		k := indexLen(len(t.nodes))
		root := int32(0)
		if roots != nil {
			root = roots[i]
		}
		ixs[i].build(t, root, rest[:k:k])
		rest = rest[k:]
	}
	return slab
}

// indexLen is the storage an index on n nodes takes: five per-node arrays
// and a table level for each bit of the longest query span, 1 to n-1 entries.
func indexLen(n int) int {
	if n == 0 {
		return 0
	}
	return (5 + bits.Len32(uint32(n-1))) * n
}

// build fills ix in slab, indexLen(len(t.nodes)) entries, rooted at root.
func (ix *StaticIndex) build(t *Tree, root int32, slab []int32) {
	n := len(t.nodes)
	if n == 0 {
		*ix = StaticIndex{}
		return
	}
	ix.parent, ix.pedge, ix.depth = slab[:n], slab[n:2*n], slab[2*n:3*n]
	ix.tin, ix.order, ix.sp = slab[3*n:4*n], slab[4*n:5*n], slab[5*n:]
	levels := len(ix.sp) / n

	// Level 0 is each position's parent's position, as Orient lays it out;
	// its entry 0, the root's, is never read. A lone node has no table.
	var low []int32
	if levels > 0 {
		low = ix.sp[:n]
	}
	t.Orient(root, ix.parent, ix.pedge, ix.order, ix.tin, low)
	ix.depth[root] = 0
	for _, u := range ix.order[1:n] {
		ix.depth[u] = ix.depth[ix.parent[u]] + 1
	}

	// Level k's entry i covers level 0's [i, i+2^k); the entries past n-2^k
	// would run off the end and are never read, but zeroed, so an index is
	// the same bytes whatever its slab held before.
	for k := 1; k < levels; k++ {
		half := 1 << (k - 1)
		prev, row := ix.sp[(k-1)*n:k*n], ix.sp[k*n:(k+1)*n]
		for i := range n - 1<<k + 1 {
			row[i] = min(prev[i], prev[i+half])
		}
		clear(row[n-1<<k+1:])
	}
}

// Orient lays t out rooted at node root: the parent vertex and the edge to it
// of every node (NoNode and NoEdge at the root), and the nodes in preorder,
// children in adjacency slot order; where pos is not nil, each node's
// position in the preorder too, and where up is not nil as well, each
// position's parent's position (-1 for the root's). Each slice holds at
// least a node each; the preorder is order's first NumNodes entries.
func (t *Tree) Orient(root int32, parent, pedge, order, pos, up []int32) {
	// A depth-first walk whose stack of discovered, unvisited nodes grows
	// down from the end of order: with the visited ones filling it from the
	// front, the two never hold more than every node once. Children go on
	// the stack last slot first, so that the first comes off first.
	parent[root], pedge[root] = NoNode, NoEdge
	top := len(order) - 1
	order[top] = root
	for at := 0; top < len(order); at++ {
		v := order[top]
		top++
		order[at] = v
		if pos != nil {
			pos[v] = int32(at)
			if up != nil {
				up[at] = -1
				if p := parent[v]; p != NoNode {
					up[at] = pos[p]
				}
			}
		}
		nd, pe := &t.nodes[v], pedge[v]
		for slot := nd.deg - 1; slot >= 0; slot-- {
			if e := nd.adj[slot]; e != pe {
				u := t.Other(e, v)
				parent[u], pedge[u] = v, e
				top--
				order[top] = u
			}
		}
	}
}

// Oriented returns the orientation the index was built on: parent vertex and
// parent edge per node, and the nodes in preorder, the root first. Callers
// must not modify them.
func (ix *StaticIndex) Oriented() (parent, pedge, order []int32) {
	return ix.parent, ix.pedge, ix.order
}

// Depth returns the depth of v below the index root.
func (ix *StaticIndex) Depth(v int32) int32 { return ix.depth[v] }

// Parent returns v's parent node (NoNode for the root).
func (ix *StaticIndex) Parent(v int32) int32 { return ix.parent[v] }

// ParentEdge returns the edge from v to its parent (NoEdge for the root).
func (ix *StaticIndex) ParentEdge(v int32) int32 { return ix.pedge[v] }

// LCA returns the lowest common ancestor of u and v.
func (ix *StaticIndex) LCA(u, v int32) int32 {
	l, r := ix.tin[u], ix.tin[v]
	if l == r {
		return u
	}
	if l > r {
		l, r = r, l
	}
	k := bits.Len32(uint32(r-l)) - 1
	row := ix.sp[k*len(ix.tin):]
	return ix.order[min(row[l+1], row[r+1-1<<k])]
}

// Dist returns the number of edges on the path from u to v.
func (ix *StaticIndex) Dist(u, v int32) int32 {
	l := ix.LCA(u, v)
	return ix.depth[u] + ix.depth[v] - 2*ix.depth[l]
}

// Median returns the unique vertex lying on all three pairwise paths between
// u, v and w (their "median" or Steiner point).
func (ix *StaticIndex) Median(u, v, w int32) int32 {
	a, b, c := ix.LCA(u, v), ix.LCA(u, w), ix.LCA(v, w)
	// Exactly two of the three coincide; the remaining (deepest) one is the
	// median.
	if a == b {
		return c
	}
	if a == c {
		return b
	}
	return a
}

// MedianPre is Median with luv = LCA(u, v) precomputed by the caller — two
// LCA queries instead of three, useful when u and v are fixed across a batch.
func (ix *StaticIndex) MedianPre(luv, u, v, w int32) int32 {
	b, c := ix.LCA(u, w), ix.LCA(v, w)
	if luv == b {
		return c
	}
	if luv == c {
		return b
	}
	return luv
}

// OnPath reports whether x lies on the path from u to v (inclusive).
func (ix *StaticIndex) OnPath(x, u, v int32) bool {
	return ix.Dist(u, x)+ix.Dist(x, v) == ix.Dist(u, v)
}
