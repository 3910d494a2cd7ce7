package tree

// The LCA index this package shipped before the preorder one, kept (one
// slice per table level instead of a slab) as the differential oracle of
// TestLCAAgainstParentWalk: an Euler tour of 2n-1 visits and a sparse
// table of packed (depth, node) int64 minima over it, with a logs table for
// the query width. Its Median is the deepest pairwise LCA, a formulation of
// its own.

type refStaticIndex struct {
	root   int32
	parent []int32
	pedge  []int32 // edge to parent
	depth  []int32
	first  []int32 // first occurrence of each node in the Euler tour
	sp     [][]int64
	logs   []int8 // logs[i] = floor(log2 i), for query-width lookup
}

func newRefStaticIndex(t *Tree) *refStaticIndex {
	n := len(t.nodes)
	ix := &refStaticIndex{}
	if n == 0 {
		return ix
	}
	per := make([]int32, 4*n)
	ix.parent, ix.pedge, ix.depth, ix.first = per[:n], per[n:2*n], per[2*n:3*n], per[3*n:]
	m := 2*n - 1
	ix.logs = make([]int8, m+1)
	for i := 2; i <= m; i++ {
		ix.logs[i] = ix.logs[i/2] + 1
	}
	levels := int(ix.logs[m]) + 1
	ix.sp = make([][]int64, levels)
	for k := range ix.sp {
		ix.sp[k] = make([]int64, m-1<<k+1)
	}

	// Euler tour (2n-1 visits) from the root, children in adjacency slot
	// order; each visit is packed (depth<<32 | node).
	tour := ix.sp[0]
	v, slot, at := ix.root, 0, 0
	ix.parent[v], ix.pedge[v] = NoNode, NoEdge
	tour[at] = int64(v)
	for {
		if nd := &t.nodes[v]; slot < int(nd.deg) {
			e := nd.adj[slot]
			if e == ix.pedge[v] {
				slot++
				continue
			}
			u := t.Other(e, v)
			ix.parent[u], ix.pedge[u], ix.depth[u] = v, e, ix.depth[v]+1
			at++
			ix.first[u] = int32(at)
			tour[at] = int64(ix.depth[u])<<32 | int64(u)
			v, slot = u, 0
			continue
		}
		if v == ix.root {
			break
		}
		e, p := ix.pedge[v], ix.parent[v]
		at++
		tour[at] = int64(ix.depth[p])<<32 | int64(p)
		for slot = 0; t.nodes[p].adj[slot] != e; slot++ {
		}
		v, slot = p, slot+1
	}

	// Sparse table of packed (depth, node) range minima over the tour.
	for k := 1; k < levels; k++ {
		half := 1 << (k - 1)
		prev, row := ix.sp[k-1], ix.sp[k]
		for i := range row {
			a, b := prev[i], prev[i+half]
			if b < a {
				a = b
			}
			row[i] = a
		}
	}
	return ix
}

func (ix *refStaticIndex) LCA(u, v int32) int32 {
	l, r := ix.first[u], ix.first[v]
	if l > r {
		l, r = r, l
	}
	k := ix.logs[r-l+1]
	a, b := ix.sp[k][l], ix.sp[k][int(r)-(1<<k)+1]
	if b < a {
		a = b
	}
	return int32(a)
}

func (ix *refStaticIndex) Dist(u, v int32) int32 {
	l := ix.LCA(u, v)
	return ix.depth[u] + ix.depth[v] - 2*ix.depth[l]
}

// Median is the deepest of the three pairwise LCAs.
func (ix *refStaticIndex) Median(u, v, w int32) int32 {
	m := ix.LCA(u, v)
	for _, x := range []int32{ix.LCA(u, w), ix.LCA(v, w)} {
		if ix.depth[x] > ix.depth[m] {
			m = x
		}
	}
	return m
}
