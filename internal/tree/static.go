package tree

// StaticIndex answers lowest-common-ancestor, distance, median and
// path-position queries on a tree that will not be modified after the index
// is built. Gentrius builds one per constraint tree: the constraint-side
// half of the double-edge mapping resolves pending-taxon targets with
// median queries against the static constraint tree.
//
// LCA queries run in O(1) via an Euler tour and a sparse-table range-minimum
// structure over tour depths: the LCA of u and v is the unique minimum-depth
// vertex between their first tour occurrences. Each sparse-table entry packs
// (depth, node) into one int64 so a range minimum is a single integer min.
type StaticIndex struct {
	t      *Tree
	root   int32
	parent []int32
	pedge  []int32 // edge to parent
	depth  []int32
	first  []int32 // first occurrence of each node in the Euler tour
	sp     [][]int64
	logs   []int8 // logs[i] = floor(log2 i), for query-width lookup
}

// maxLevels bounds the sparse table's height: a tour of 2n-1 < 2^32 visits
// has at most 32 levels.
const maxLevels = 32

// NewStaticIndex builds the index, rooting the tree at node 0. It allocates
// four times whatever the size of the tree: the index with its row headers,
// one slab for the per-node arrays, one for the sparse table, and logs.
func NewStaticIndex(t *Tree) *StaticIndex {
	n := len(t.nodes)
	mem := &struct {
		ix   StaticIndex
		rows [maxLevels][]int64
	}{}
	ix := &mem.ix
	ix.t = t
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
	size := 0
	for k := 0; k < levels; k++ {
		size += m - 1<<k + 1
	}
	table := make([]int64, size)
	ix.sp = mem.rows[:levels]
	for k := range ix.sp {
		w := m - 1<<k + 1
		ix.sp[k], table = table[:w], table[w:]
	}

	// Euler tour (2n-1 visits) from the root, children in adjacency slot
	// order; each visit is packed (depth<<32 | node). The walk keeps no
	// stack: on the way down it records parent and parent edge, and on the
	// way back up it resumes after the slot that holds the edge it returns
	// by. A tree has no other way back into a vertex, so the parent edge is
	// the only one to skip.
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

// Depth returns the depth of v below the index root.
func (ix *StaticIndex) Depth(v int32) int32 { return ix.depth[v] }

// Parent returns v's parent node (NoNode for the root).
func (ix *StaticIndex) Parent(v int32) int32 { return ix.parent[v] }

// ParentEdge returns the edge from v to its parent (NoEdge for the root).
func (ix *StaticIndex) ParentEdge(v int32) int32 { return ix.pedge[v] }

// LCA returns the lowest common ancestor of u and v.
func (ix *StaticIndex) LCA(u, v int32) int32 {
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
