package tree

import "sync"

// NewickWriter renders trees in the canonical Newick form (see Tree.Newick)
// in time and space linear in the tree, without recursion. It owns all the
// scratch the rendering needs and reuses it from call to call, so a writer
// that has seen a tree of some size renders further trees of that size
// without allocating. The zero value is ready to use; a writer must not be
// used from two goroutines at once.
//
// Rendering is two passes over the tree rooted at the neighbour of the
// lowest-id leaf: a breadth-first sweep lists every node after its parent,
// and walking that list backwards gives each subtree's minimum taxon id and
// with it the order of each node's two children; the emit pass then writes
// the children in that order straight into the output buffer, driven by an
// explicit stack.
type NewickWriter struct {
	sc     []nwNode // per tree node, indexed by node id
	order  []int32  // nodes in breadth-first order from the root; cap >= len(sc), so it never regrows
	stack  []int32  // emit pass: node ids and tok* punctuation still to write
	taxa   *Taxa    // universe the label cache belongs to
	labels []string // taxon id -> label as written (quoted if needed), "" = not yet looked at
	buf    []byte   // String's output buffer
}

// nwNode is the writer's view of one node of the tree being rendered.
type nwNode struct {
	up   int32 // neighbour towards the root
	min  int32 // smallest taxon id in the subtree hanging below the node
	a, b int32 // the two children, a holding the smaller minimum; a == NoNode on leaves
}

// Stack entries of the emit pass that are not node ids.
const (
	tokComma int32 = -1
	tokClose int32 = -2
)

// String returns the canonical Newick string of t. The string is the call's
// only allocation once the writer's scratch has grown to the tree's size.
func (w *NewickWriter) String(t *Tree) string {
	w.buf = w.Append(w.buf[:0], t)
	return string(w.buf)
}

// Append appends the canonical Newick string of t to dst and returns the
// extended slice.
func (w *NewickWriter) Append(dst []byte, t *Tree) []byte {
	if w.taxa != t.taxa {
		w.taxa = t.taxa
		clear(w.labels)
	}
	if n := t.taxa.Len(); len(w.labels) < n { // a universe may grow between calls
		w.labels = append(w.labels, make([]string, n-len(w.labels))...)
	}
	lo := t.leaves.Min()
	switch t.NumLeaves() {
	case 0:
		return append(dst, ';')
	case 1:
		dst = append(dst, w.label(int32(lo))...)
		return append(dst, ';')
	case 2:
		dst = append(dst, '(')
		dst = append(dst, w.label(int32(lo))...)
		dst = append(dst, ',')
		dst = append(dst, w.label(int32(t.leaves.NextSetBit(lo+1)))...)
		return append(dst, ')', ';')
	}
	if n := len(t.nodes); len(w.sc) < n {
		w.sc = make([]nwNode, n)
		w.order = make([]int32, 0, n)
	}
	sc := w.sc

	// Pass 1: root at the lowest-id leaf's neighbour. That leaf counts as the
	// root's parent here, which leaves every internal node, the root
	// included, with exactly two children.
	l := t.leafOf[lo]
	root := t.Other(t.nodes[l].adj[0], l)
	sc[root].up = l
	order := append(w.order[:0], root)
	for i := 0; i < len(order); i++ {
		v := order[i]
		nd, s := &t.nodes[v], &sc[v]
		if nd.taxon >= 0 {
			s.min, s.a = nd.taxon, NoNode
			continue
		}
		s.a = NoNode
		for _, e := range nd.adj {
			u := t.Other(e, v)
			if u == s.up {
				continue
			}
			sc[u].up = v
			order = append(order, u)
			if s.a == NoNode {
				s.a = u
			} else {
				s.b = u
			}
		}
	}
	for i := len(order) - 1; i >= 0; i-- {
		s := &sc[order[i]]
		if s.a == NoNode {
			continue
		}
		ma, mb := sc[s.a].min, sc[s.b].min
		if mb < ma {
			s.a, s.b, ma = s.b, s.a, mb
		}
		s.min = ma
	}

	// Pass 2: the lowest-id leaf sorts first among the root's three subtrees.
	dst = append(dst, '(')
	dst = append(dst, w.label(int32(lo))...)
	dst = append(dst, ',')
	st := append(w.stack[:0], tokClose, sc[root].b, tokComma, sc[root].a)
	for len(st) > 0 {
		x := st[len(st)-1]
		st = st[:len(st)-1]
		switch x {
		case tokComma:
			dst = append(dst, ',')
		case tokClose:
			dst = append(dst, ')')
		default:
			s := &sc[x]
			if s.a == NoNode {
				dst = append(dst, w.label(s.min)...)
				continue
			}
			dst = append(dst, '(')
			st = append(st, tokClose, s.b, tokComma, s.a)
		}
	}
	w.stack = st
	return append(dst, ';')
}

// label returns taxon id's label as it is written, quoting it on first use.
func (w *NewickWriter) label(id int32) string {
	s := w.labels[id]
	if s == "" {
		s = quoteIfNeeded(w.taxa.names[id])
		w.labels[id] = s
	}
	return s
}

// writerPool backs the one-shot Tree.Newick. Writers whose scratch grew past
// maxPooledNodes are dropped rather than pooled, so one huge tree does not
// pin its scratch for the life of the process.
var writerPool = sync.Pool{New: func() any { return new(NewickWriter) }}

const maxPooledNodes = 1 << 16
