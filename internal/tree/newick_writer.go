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
//
// A family of trees that differ in one leaf is rendered once: SetBase renders
// the tree they share and AppendWith cuts each member out of that rendering
// (see there).
type NewickWriter struct {
	sc     []nwNode // per tree node, indexed by node id
	order  []int32  // nodes in breadth-first order from the root; cap >= len(sc), so it never regrows
	stack  []int32  // emit pass: node ids and tok* punctuation still to write
	taxa   *Taxa    // universe the label cache belongs to
	labels []string // taxon id -> label as written (quoted if needed), "" = not yet looked at
	buf    []byte   // String's output buffer

	// The base of AppendWith: the tree and its rendering, where in it each
	// node's subtree lies, and the leaf each member of the family adds.
	t      *Tree
	base   []byte
	root   int32 // the lowest-id leaf's neighbour
	x      int32
	xlabel string

	// Stats counts the writer's work since it was made.
	Stats WriterStats
}

// WriterStats is a NewickWriter's work, in trees and bytes: Walked bytes were
// written by the two-pass walk (Append, String, SetBase), Copied bytes were
// cut from a base by AppendWith — for Spliced trees in three ranges, the new
// leaf second in its pair; for Recut trees, the new leaf first in its pair,
// in one more per level the pair rose.
type WriterStats struct {
	Walked, Copied int64
	Spliced, Recut int64
}

// nwNode is the writer's view of one node of the tree being rendered.
type nwNode struct {
	up   int32 // neighbour towards the root
	min  int32 // smallest taxon id in the subtree hanging below the node
	a, b int32 // the two children, a holding the smaller minimum; a == NoNode on leaves
	s, n int32 // where the subtree was written: out[s : s+n] of the rendering
}

// Stack entries of the emit pass that are not node ids: a comma, and from
// tokClose down the ')' of node tokClose - entry.
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
	at := len(dst)
	dst = w.walk(dst, t)
	w.Stats.Walked += int64(len(dst) - at)
	return dst
}

// walk is the two-pass rendering. It leaves the root and the per-node records
// of a tree of three or more leaves, where each subtree was written included,
// behind for AppendWith.
func (w *NewickWriter) walk(dst []byte, t *Tree) []byte {
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
	sc[l].up, sc[root].up = NoNode, l
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

	// Pass 2: the lowest-id leaf sorts first among the root's three subtrees,
	// inside the root's own parentheses.
	at := len(dst)
	dst = append(dst, '(')
	dst = append(dst, w.label(int32(lo))...)
	dst = append(dst, ',')
	sc[root].s = 0
	st := append(w.stack[:0], tokClose-root, sc[root].b, tokComma, sc[root].a)
	for len(st) > 0 {
		x := st[len(st)-1]
		st = st[:len(st)-1]
		switch {
		case x == tokComma:
			dst = append(dst, ',')
		case x < tokComma:
			dst = append(dst, ')')
			s := &sc[tokClose-x]
			s.n = int32(len(dst)-at) - s.s
		default:
			s := &sc[x]
			s.s = int32(len(dst) - at)
			if s.a == NoNode {
				lab := w.label(s.min)
				dst, s.n = append(dst, lab...), int32(len(lab))
				continue
			}
			dst = append(dst, '(')
			st = append(st, tokClose-x, s.b, tokComma, s.a)
		}
	}
	w.stack, w.root = st, root
	return append(dst, ';')
}

// SetBase renders t as the base of the trees AppendWith writes: t with taxon x
// added as a leaf on one of its edges. It reports false, and AppendWith must
// not be called, when such a tree is not a re-cut of t's rendering: x sorts
// before every leaf of t, so the tree is written from another root, or t has
// fewer than three leaves. The base is valid until the writer's next Append,
// String or SetBase, and for as long as t is not changed.
func (w *NewickWriter) SetBase(t *Tree, x int) bool {
	if t.NumLeaves() < 3 || x < t.leaves.Min() {
		return false
	}
	w.base = w.Append(w.base[:0], t)
	w.t, w.x, w.xlabel = t, int32(x), w.label(int32(x))
	return true
}

// AppendWith appends the canonical Newick string of the base tree with its
// new leaf x on edge e. Below the edge hangs a subtree the base renders as
// one range; with x it becomes the pair (below,x), in place, when x sorts
// after the subtree's first leaf, and nothing else moves. Otherwise the pair
// is (x,below) and now sorts by x: it rises past every sibling it precedes,
// up to the first ancestor whose other child still sorts before x, and the
// base is re-cut along that path. The edge of the lowest leaf is the same one
// level up: the rest of the tree becomes one pair, beside x.
func (w *NewickWriter) AppendWith(dst []byte, e int32) []byte {
	sc, base, x := w.sc, w.base, w.x
	at := len(dst)
	v := w.t.edges[e].a
	if b := w.t.edges[e].b; sc[b].up == v {
		v = b
	}
	first := x < sc[v].min
	below := base[sc[v].s : sc[v].s+sc[v].n]
	if v == w.root {
		// "(lo,A,B);" becomes "(lo,(A,B),x);" or "(lo,x,(A,B));".
		ab := sc[sc[v].a].s
		dst = append(dst, base[:ab]...)
		if first {
			dst = append(append(dst, w.xlabel...), ',')
		}
		dst = append(append(append(dst, '('), base[ab:len(below)-1]...), ')')
		if !first {
			dst = append(append(dst, ','), w.xlabel...)
		}
		dst = append(dst, ')', ';')
	} else {
		top := v
		cut := w.stack[:0] // the siblings x rises past, lowest first
		for first && top != w.root {
			u := &sc[sc[top].up]
			o := u.a
			if o == top {
				o = u.b
			} else if sc[o].min < x {
				break
			}
			cut, top = append(cut, o), sc[top].up
		}
		// What precedes top's subtree, then one '(' for each node from top
		// down to the new pair: the root opens with the lowest leaf instead.
		open := len(cut) + 1
		if top == w.root {
			dst = append(dst, base[:sc[sc[top].a].s]...)
			open--
		} else {
			dst = append(dst, base[:sc[top].s]...)
		}
		for ; open > 0; open-- {
			dst = append(dst, '(')
		}
		if first {
			dst = append(append(append(dst, w.xlabel...), ','), below...)
		} else {
			dst = append(append(append(dst, below...), ','), w.xlabel...)
		}
		dst = append(dst, ')')
		for _, o := range cut {
			dst = append(append(append(dst, ','), base[sc[o].s:sc[o].s+sc[o].n]...), ')')
		}
		dst = append(dst, base[sc[top].s+sc[top].n:]...)
		w.stack = cut
	}
	if first && v != w.root {
		w.Stats.Recut++
	} else {
		w.Stats.Spliced++
	}
	w.Stats.Copied += int64(len(dst) - at)
	return dst
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
