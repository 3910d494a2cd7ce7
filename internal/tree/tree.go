// Package tree implements unrooted binary phylogenetic trees: construction
// by stepwise leaf attachment with exact LIFO detachment (the operation pair
// Gentrius' branch-and-bound relies on), Newick I/O, induced subtrees
// (restriction to a taxon subset), split sets, canonical topology strings,
// and LCA/median queries on static trees.
//
// Node and edge ids are allocated stack-like: ids in use always form the
// prefixes [0,NumNodes) and [0,NumEdges), and AttachLeaf/DetachLeaf are exact
// inverses including id allocation. Two trees that start identical and apply
// the same operation sequence therefore have identical ids throughout — the
// property the parallel engine's task handoff (which names branches by edge
// id) depends on.
package tree

import (
	"fmt"
	"unsafe"

	"gentrius/internal/bitset"
)

// NoNode and NoEdge mark empty references.
const (
	NoNode int32 = -1
	NoEdge int32 = -1
)

type node struct {
	adj   [3]int32 // incident edge ids; NoEdge for unused slots
	deg   int8
	taxon int32 // taxon id for leaves, -1 for internal nodes
}

type edge struct {
	a, b int32 // endpoint node ids
}

// Tree is an unrooted tree with leaves labeled by taxon ids from a shared
// Taxa universe. All internal nodes have degree 3 (the tree is binary).
type Tree struct {
	taxa   *Taxa
	nodes  []node
	edges  []edge
	leafOf []int32 // taxon id -> leaf node id, NoNode if absent
	leaves *bitset.Set
}

// New returns an empty tree over the given taxon universe.
func New(taxa *Taxa) *Tree {
	lo := make([]int32, taxa.Len())
	for i := range lo {
		lo[i] = NoNode
	}
	return &Tree{taxa: taxa, leafOf: lo, leaves: bitset.New(taxa.Len())}
}

// Taxa returns the taxon universe the tree refers to.
func (t *Tree) Taxa() *Taxa { return t.taxa }

// NumNodes returns the number of nodes currently in the tree.
func (t *Tree) NumNodes() int { return len(t.nodes) }

// NumEdges returns the number of edges currently in the tree.
func (t *Tree) NumEdges() int { return len(t.edges) }

// NumLeaves returns the number of leaves (taxa present).
func (t *Tree) NumLeaves() int { return t.leaves.Count() }

// LeafSet returns the set of taxon ids present. The caller must not modify it.
func (t *Tree) LeafSet() *bitset.Set { return t.leaves }

// HasTaxon reports whether taxon x is a leaf of the tree.
func (t *Tree) HasTaxon(x int) bool { return t.leafOf[x] != NoNode }

// LeafNode returns the node id of taxon x's leaf (NoNode if absent).
func (t *Tree) LeafNode(x int) int32 { return t.leafOf[x] }

// NodeTaxon returns the taxon id of node v if it is a leaf, else -1.
func (t *Tree) NodeTaxon(v int32) int32 { return t.nodes[v].taxon }

// Degree returns the degree of node v.
func (t *Tree) Degree(v int32) int { return int(t.nodes[v].deg) }

// IncidentEdges returns the edge ids incident to v (valid prefix of length
// Degree(v)). The returned array is a copy.
func (t *Tree) IncidentEdges(v int32) [3]int32 { return t.nodes[v].adj }

// Adjacency returns v's incident edges and degree in one call — the hot-path
// accessor for graph traversals.
func (t *Tree) Adjacency(v int32) ([3]int32, int) {
	n := &t.nodes[v]
	return n.adj, int(n.deg)
}

// EdgeEndpoints returns the two endpoint node ids of edge e.
func (t *Tree) EdgeEndpoints(e int32) (int32, int32) {
	return t.edges[e].a, t.edges[e].b
}

// Other returns the endpoint of edge e that is not v.
func (t *Tree) Other(e, v int32) int32 {
	if t.edges[e].a == v {
		return t.edges[e].b
	}
	return t.edges[e].a
}

// newArrays returns node and edge slices of n nodes and m edges, zeroed, in
// one allocation. Neither type holds a pointer, so both can live in an int32
// array.
func newArrays(n, m int) ([]node, []edge) {
	const nodeSize, edgeSize = unsafe.Sizeof(node{}), unsafe.Sizeof(edge{})
	slab := make([]int32, (uintptr(n)*nodeSize+uintptr(m)*edgeSize)/4)
	p := unsafe.Pointer(unsafe.SliceData(slab))
	nodes := unsafe.Slice((*node)(p), n)
	if m == 0 {
		return nodes, nil
	}
	return nodes, unsafe.Slice((*edge)(unsafe.Add(p, uintptr(n)*nodeSize)), m)
}

// node and edge are whole int32 words, aligned no more strictly than an
// int32 is: an array length other than 0 here fails to compile.
var _ [0]struct{} = [unsafe.Sizeof(node{})%4 + unsafe.Sizeof(edge{})%4 +
	unsafe.Alignof(node{})/8 + unsafe.Alignof(edge{})/8]struct{}{}

func (t *Tree) allocNode(taxon int32) int32 {
	id := int32(len(t.nodes))
	t.nodes = append(t.nodes, node{adj: [3]int32{NoEdge, NoEdge, NoEdge}, taxon: taxon})
	return id
}

func (t *Tree) allocEdge(a, b int32) int32 {
	id := int32(len(t.edges))
	t.edges = append(t.edges, edge{a: a, b: b})
	return id
}

func (t *Tree) freeNode(id int32) {
	if id != int32(len(t.nodes))-1 {
		panic("tree: non-LIFO node free")
	}
	t.nodes = t.nodes[:id]
}

func (t *Tree) freeEdge(id int32) {
	if id != int32(len(t.edges))-1 {
		panic("tree: non-LIFO edge free")
	}
	t.edges = t.edges[:id]
}

func (t *Tree) addAdj(v, e int32) {
	n := &t.nodes[v]
	if n.deg == 3 {
		panic("tree: node degree overflow")
	}
	n.adj[n.deg] = e
	n.deg++
}

func (t *Tree) replaceAdj(v, old, new int32) {
	n := &t.nodes[v]
	for i := int8(0); i < n.deg; i++ {
		if n.adj[i] == old {
			n.adj[i] = new
			return
		}
	}
	panic("tree: replaceAdj: edge not incident")
}

func (t *Tree) dropAdj(v, e int32) {
	n := &t.nodes[v]
	for i := int8(0); i < n.deg; i++ {
		if n.adj[i] == e {
			n.deg--
			n.adj[i] = n.adj[n.deg]
			n.adj[n.deg] = NoEdge
			return
		}
	}
	panic("tree: dropAdj: edge not incident")
}

// AddFirstLeaf creates the first leaf of an empty tree.
func (t *Tree) AddFirstLeaf(taxon int) {
	if len(t.nodes) != 0 {
		panic("tree: AddFirstLeaf on non-empty tree")
	}
	l := t.allocNode(int32(taxon))
	t.leafOf[taxon] = l
	t.leaves.Add(taxon)
}

// AddSecondLeaf adds the second leaf, creating the tree's single edge.
func (t *Tree) AddSecondLeaf(taxon int) {
	if len(t.nodes) != 1 {
		panic("tree: AddSecondLeaf requires exactly one node")
	}
	l := t.allocNode(int32(taxon))
	e := t.allocEdge(0, l)
	t.addAdj(0, e)
	t.addAdj(l, e)
	t.leafOf[taxon] = l
	t.leaves.Add(taxon)
}

// AttachLeaf inserts taxon as a new leaf subdividing edge e. The edge e=(a,b)
// becomes (a,v) keeping id e; a new edge (v,b) and the pendant edge (v,leaf)
// are allocated, in that order. It returns the ids of the new internal node,
// the new half edge and the pendant edge.
func (t *Tree) AttachLeaf(taxon int, e int32) (v, half, pendant int32) {
	if t.leafOf[taxon] != NoNode {
		panic(fmt.Sprintf("tree: taxon %d already present", taxon))
	}
	b := t.edges[e].b
	v = t.allocNode(-1)
	l := t.allocNode(int32(taxon))
	half = t.allocEdge(v, b)
	pendant = t.allocEdge(v, l)
	t.edges[e].b = v
	t.replaceAdj(b, e, half)
	t.addAdj(v, e)
	t.addAdj(v, half)
	t.addAdj(v, pendant)
	t.addAdj(l, pendant)
	t.leafOf[taxon] = l
	t.leaves.Add(taxon)
	return v, half, pendant
}

// DetachLeaf removes taxon's leaf, undoing the AttachLeaf that inserted it.
// It requires LIFO discipline: the leaf must be the most recently attached
// one (its node and edge ids are at the top of the allocation stacks).
// It returns the id of the edge that was subdivided (now restored).
func (t *Tree) DetachLeaf(taxon int) (restored int32) {
	l := t.leafOf[taxon]
	if l == NoNode {
		panic(fmt.Sprintf("tree: taxon %d not present", taxon))
	}
	if t.NumLeaves() == 2 {
		// Undo AddSecondLeaf.
		if l != 1 {
			panic("tree: non-LIFO detach of second leaf")
		}
		e := t.nodes[l].adj[0]
		t.dropAdj(0, e)
		t.freeEdge(e)
		t.freeNode(l)
		t.leafOf[taxon] = NoNode
		t.leaves.Remove(taxon)
		return NoEdge
	}
	pendant := t.nodes[l].adj[0]
	v := t.Other(pendant, l)
	// Identify e (kept) and half (freed): half and pendant are the top two
	// edge ids; e is the remaining incident edge of v.
	var e, half int32 = NoEdge, NoEdge
	for i := 0; i < 3; i++ {
		ev := t.nodes[v].adj[i]
		if ev == pendant {
			continue
		}
		if half == NoEdge || ev > half {
			if half != NoEdge {
				e = half
			}
			half = ev
		} else {
			e = ev
		}
	}
	if half != int32(len(t.edges))-2 || pendant != int32(len(t.edges))-1 {
		panic("tree: non-LIFO leaf detach")
	}
	// e currently is (a,v) with v==edges[e].b by AttachLeaf construction.
	if t.edges[e].b != v {
		panic("tree: detach invariant violated: reused edge not (a,v)")
	}
	b := t.Other(half, v)
	t.edges[e].b = b
	t.replaceAdj(b, half, e)
	t.freeEdge(pendant)
	t.freeEdge(half)
	t.freeNode(l)
	t.freeNode(v)
	t.leafOf[taxon] = NoNode
	t.leaves.Remove(taxon)
	return e
}

// Clone returns a deep copy sharing only the Taxa universe.
func (t *Tree) Clone() *Tree { return t.CopyInto(nil) }

// CopyInto makes dst an independent copy of t, in dst's own arrays where they
// are large enough, and returns it; a nil dst is a new Tree.
func (t *Tree) CopyInto(dst *Tree) *Tree {
	if dst == nil {
		dst = &Tree{leaves: new(bitset.Set)}
	}
	dst.taxa = t.taxa
	dst.nodes = append(dst.nodes[:0], t.nodes...)
	dst.edges = append(dst.edges[:0], t.edges...)
	dst.leafOf = append(dst.leafOf[:0], t.leafOf...)
	t.leaves.CopyInto(dst.leaves)
	return dst
}

// Validate checks structural invariants; it is used by tests and returns a
// descriptive error on the first violation found.
func (t *Tree) Validate() error {
	nl := 0
	for vi := range t.nodes {
		v := &t.nodes[vi]
		switch {
		case v.taxon >= 0:
			nl++
			if len(t.nodes) > 1 && v.deg != 1 {
				return fmt.Errorf("leaf node %d has degree %d", vi, v.deg)
			}
			if t.leafOf[v.taxon] != int32(vi) {
				return fmt.Errorf("leafOf[%d] != %d", v.taxon, vi)
			}
		default:
			if v.deg != 3 {
				return fmt.Errorf("internal node %d has degree %d", vi, v.deg)
			}
		}
		for i := int8(0); i < v.deg; i++ {
			e := v.adj[i]
			if e < 0 || int(e) >= len(t.edges) {
				return fmt.Errorf("node %d has invalid edge %d", vi, e)
			}
			if t.edges[e].a != int32(vi) && t.edges[e].b != int32(vi) {
				return fmt.Errorf("node %d lists edge %d that does not touch it", vi, e)
			}
		}
	}
	if nl != t.leaves.Count() {
		return fmt.Errorf("leaf count %d != leafSet count %d", nl, t.leaves.Count())
	}
	if nl >= 2 {
		wantNodes, wantEdges := 2*nl-2, 2*nl-3
		if nl == 2 {
			wantNodes, wantEdges = 2, 1
		}
		if len(t.nodes) != wantNodes {
			return fmt.Errorf("node count %d, want %d for %d leaves", len(t.nodes), wantNodes, nl)
		}
		if len(t.edges) != wantEdges {
			return fmt.Errorf("edge count %d, want %d for %d leaves", len(t.edges), wantEdges, nl)
		}
	}
	// Connectivity.
	if len(t.nodes) > 0 {
		seen := make([]bool, len(t.nodes))
		stack := []int32{0}
		seen[0] = true
		cnt := 0
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			cnt++
			n := &t.nodes[v]
			for i := int8(0); i < n.deg; i++ {
				u := t.Other(n.adj[i], v)
				if !seen[u] {
					seen[u] = true
					stack = append(stack, u)
				}
			}
		}
		if cnt != len(t.nodes) {
			return fmt.Errorf("tree not connected: reached %d of %d nodes", cnt, len(t.nodes))
		}
	}
	return nil
}

// Split returns the set of taxa on the a-side of edge e.
func (t *Tree) Split(e int32) *bitset.Set {
	s := bitset.New(t.taxa.Len())
	start := t.edges[e].a
	stack := []int32{start}
	seen := make([]bool, len(t.nodes))
	seen[start] = true
	seen[t.edges[e].b] = true // block crossing e
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if tx := t.nodes[v].taxon; tx >= 0 {
			s.Add(int(tx))
		}
		n := &t.nodes[v]
		for i := int8(0); i < n.deg; i++ {
			if n.adj[i] == e {
				continue
			}
			u := t.Other(n.adj[i], v)
			if !seen[u] {
				seen[u] = true
				stack = append(stack, u)
			}
		}
	}
	return s
}

// SplitKeys returns the normalized keys of all non-trivial splits, one per
// internal edge. Two trees on the same leaf set have equal topologies iff
// their SplitKeys sets are equal.
func (t *Tree) SplitKeys() map[string]bool {
	out := make(map[string]bool)
	for e := int32(0); e < int32(len(t.edges)); e++ {
		a, b := t.edges[e].a, t.edges[e].b
		if t.nodes[a].taxon >= 0 || t.nodes[b].taxon >= 0 {
			continue // trivial (pendant) split
		}
		s := t.Split(e)
		// Normalize within the tree's leaf set (not the whole universe):
		// take the lexicographically smaller of the two sides.
		c := t.leaves.Clone()
		c.SubtractWith(s)
		k, ck := s.Key(), c.Key()
		if ck < k {
			k = ck
		}
		out[k] = true
	}
	return out
}

// SameTopology reports whether t and o are the same unrooted tree: equal
// leaf sets and equal non-trivial split sets.
func (t *Tree) SameTopology(o *Tree) bool {
	if !t.leaves.Equal(o.leaves) {
		return false
	}
	a, b := t.SplitKeys(), o.SplitKeys()
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// Restrict returns the induced subtree on the taxa in sub (suppressing all
// resulting degree-2 nodes). sub must be a non-empty subset of the tree's
// leaf set.
func (t *Tree) Restrict(sub *bitset.Set) *Tree {
	if !sub.SubsetOf(t.leaves) {
		panic("tree: Restrict set is not a subset of the leaf set")
	}
	k := sub.Count()
	r := New(t.taxa)
	switch k {
	case 0:
		panic("tree: Restrict to empty set")
	case 1:
		r.AddFirstLeaf(sub.Min())
		return r
	case 2:
		els := sub.Elements()
		r.AddFirstLeaf(els[0])
		r.AddSecondLeaf(els[1])
		return r
	}
	// Phase 1: prune everything outside the Steiner tree of sub. deg[v] is
	// the degree of v within the surviving subgraph.
	deg := make([]int8, len(t.nodes))
	removed := make([]bool, len(t.nodes))
	var queue []int32
	for vi := range t.nodes {
		deg[vi] = t.nodes[vi].deg
		tx := t.nodes[vi].taxon
		if deg[vi] <= 1 && (tx < 0 || !sub.Has(int(tx))) {
			queue = append(queue, int32(vi))
		}
	}
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		removed[v] = true
		n := &t.nodes[v]
		for i := int8(0); i < n.deg; i++ {
			u := t.Other(n.adj[i], v)
			if removed[u] {
				continue
			}
			deg[u]--
			if deg[u] == 1 {
				tx := t.nodes[u].taxon
				if tx < 0 || !sub.Has(int(tx)) {
					queue = append(queue, u)
				}
			}
		}
	}
	// Phase 2: significant vertices are survivors with deg != 2. Map them to
	// r-nodes; then contract each deg-2 chain into a single r-edge.
	img := make([]int32, len(t.nodes))
	for i := range img {
		img[i] = NoNode
	}
	for vi := range t.nodes {
		if removed[vi] || deg[vi] == 2 {
			continue
		}
		tx := t.nodes[vi].taxon
		if tx >= 0 && sub.Has(int(tx)) {
			id := r.allocNode(tx)
			r.leafOf[tx] = id
			r.leaves.Add(int(tx))
			img[vi] = id
		} else {
			img[vi] = r.allocNode(-1)
		}
	}
	// advance walks from significant vertex v over edge e through deg-2
	// survivors to the next significant vertex.
	advance := func(v, e int32) int32 {
		for {
			u := t.Other(e, v)
			if deg[u] != 2 {
				return u
			}
			n := &t.nodes[u]
			for i := int8(0); i < n.deg; i++ {
				e2 := n.adj[i]
				if e2 != e && !removed[t.Other(e2, u)] {
					v, e = u, e2
					break
				}
			}
		}
	}
	for vi := range t.nodes {
		if removed[vi] || img[vi] == NoNode {
			continue
		}
		n := &t.nodes[vi]
		for i := int8(0); i < n.deg; i++ {
			e := n.adj[i]
			u0 := t.Other(e, int32(vi))
			if removed[u0] {
				continue
			}
			u := advance(int32(vi), e)
			if img[u] == NoNode {
				panic("tree: Restrict: chain ended at non-significant vertex")
			}
			if img[u] > img[int32(vi)] {
				continue // create each edge once, from the larger image id
			}
			re := r.allocEdge(img[int32(vi)], img[u])
			r.addAdj(img[int32(vi)], re)
			r.addAdj(img[u], re)
		}
	}
	return r
}
