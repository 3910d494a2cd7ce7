package tree

import (
	"sort"
	"sync"
)

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
// (see there). The families of the trees with two leaves more — one leaf on
// each of some edges, the other on the edges of each result — share that one
// walk: Derive makes each family's base from the walked one.
type NewickWriter struct {
	sc     []nwNode // per tree node, indexed by node id: the walk's records, the walked base's
	order  []int32  // nodes breadth-first from the root, or as the walked base wrote them (listWritten); cap >= len(sc), so it never regrows
	stack  []int32  // emit pass: node ids and tok* punctuation still to write; AppendWith: the siblings a new pair rose past
	taxa   *Taxa    // universe the label cache belongs to
	labels []string // taxon id -> label as written (quoted if needed), "" = not yet looked at
	buf    []byte   // String's output buffer

	// The bases AppendWith cuts from: SetBase's walk of t, and the last one
	// Derive made of it. cur is the one in use.
	t               *Tree
	walked, derived nwBase
	cur             *nwBase

	// Stats counts the writer's work since it was made.
	Stats WriterStats
}

// nwBase is a rendering AppendWith cuts trees from: the bytes, where in them
// each node's subtree lies, and the leaf each cut tree adds.
type nwBase struct {
	out    []byte
	sc     []nwNode
	root   int32 // the lowest leaf's neighbour
	x      int32
	xlabel string
	// The walked tree: its lowest leaf, and its sizes — the ids AttachLeaf
	// gives next. listed is set once the writer's order lists its nodes in
	// the order they were written (listWritten).
	lo, nodes, edges int32
	listed           bool
	// A derived base has a leaf the tree does not, on edge split as AttachLeaf
	// puts it there: split keeps its id, half and half+1 (the leaf's pendant)
	// are new, and low holds the three edges' ends away from the root, which
	// the tree cannot tell. split is NoEdge on a walked base.
	split, half int32
	low         [3]int32
}

// WriterStats is a NewickWriter's work, in trees and bytes: Walked bytes were
// written by the two-pass walk (Append, String, SetBase), Copied bytes were
// cut from a base — by AppendWith, for Spliced trees in three ranges, the new
// leaf second in its pair, for Recut trees, the new leaf first in its pair,
// in one more per level the pair rose; and by Derive, for Derived bases.
type WriterStats struct {
	Walked, Copied int64
	Spliced, Recut int64
	Derived        int64
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
// behind for SetBase.
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
		w.stack = make([]int32, 0, 2*n) // three entries a level and four: enough at any depth
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
	w.stack = st
	w.walked.root = root
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
	b := &w.walked
	if b.out == nil {
		b.out = make([]byte, 0, 16*len(t.nodes)) // a label of up to about 25 bytes a leaf
	}
	b.out = w.Append(b.out[:0], t)
	b.sc, b.x, b.xlabel, b.split, b.listed = w.sc, int32(x), w.label(int32(x)), NoEdge, false
	b.lo, b.nodes, b.edges = int32(t.leaves.Min()), int32(len(t.nodes)), int32(len(t.edges))
	w.t, w.cur = t, b
	return true
}

// Derive makes the base the tree SetBase walked with its new leaf on edge e,
// and x the leaf AppendWith adds to that: AppendWith then writes the walked
// tree with both leaves, edge ids as AttachLeaf gives them. The tree is not
// walked again: the rendering is cut from the walked one as AppendWith cuts a
// tree, and the walked records are copied with it: two are added, for the new
// leaf and the node it hangs off; those of the nodes the new pair rose past
// are rewritten, those above them grow by the bytes added, and every other
// one moves by the offset of the range it was copied in. It reports false,
// and changes nothing, when x sorts before every leaf of the walked tree. The walked base
// stays for the next Derive, and the tree must be as SetBase saw it; the
// derived one is valid until the next Derive, SetBase, Append or String.
func (w *NewickWriter) Derive(e int32, x int) bool {
	p, d := &w.walked, &w.derived
	if int32(x) < p.lo {
		return false
	}
	if !p.listed {
		w.listWritten()
	}
	v := w.lower(p, e)
	up, y, ylen := p.sc[v].up, p.x, int32(len(p.xlabel))
	if n := len(p.out) + int(ylen) + 3; cap(d.out) < n {
		d.out = make([]byte, 0, 2*n) // grown once for the trees of a few more leaves
	}
	var top int32
	d.out, top = w.splice(d.out[:0], p, v)
	grow := int32(len(d.out) - len(p.out))

	nd, lf := p.nodes, p.nodes+1 // the ids AttachLeaf gives the pair's node and the leaf
	if cap(d.sc) < len(p.sc)+2 {
		d.sc = make([]nwNode, 0, len(p.sc)+2)
	}
	sc := append(append(d.sc[:0], p.sc[:nd]...), nwNode{up: up}, nwNode{up: nd, min: y, a: NoNode, n: ylen})
	pair, leaf := &sc[nd], &sc[lf]
	pair.a, pair.b, pair.min = v, lf, p.sc[v].min
	if first := y < p.sc[v].min; first {
		pair.a, pair.b, pair.min = lf, v, y
	}
	sc[v].up = nd
	if v == p.root {
		// "(lo,A,B)" becomes "(lo,(A,B),y)" or "(lo,y,(A,B))": the pair is the
		// root now, and everything but the lowest leaf moves by one offset.
		r, pre := &sc[v], p.sc[p.sc[v].a].s
		r.s, r.n = pre, r.n-pre+1
		leaf.s = pre + r.n + 1
		if pair.a == lf {
			r.s, leaf.s = pre+ylen+1, pre
		}
		w.move(sc, pre, p.sc[v].n, r.s+1-pre)
		pair.s, pair.n, d.root = 0, p.sc[v].n+grow, nd
	} else {
		// The pair, and the levels it rose past (w.stack, lowest first) each
		// written as (path, sibling), from where top began.
		cut := w.stack
		k := int32(len(cut))
		pos := p.sc[top].s + k // the pair's '('
		if top == p.root {
			pos = p.sc[p.sc[top].a].s + k - 1 // the root's '(' precedes "lo,"
		}
		pair.s = pos
		pos++
		if pair.a == lf {
			leaf.s, pos = pos, pos+ylen+1
		}
		w.move(sc, p.sc[v].s, p.sc[v].s+p.sc[v].n, pos-p.sc[v].s)
		pos += p.sc[v].n
		if pair.b == lf {
			leaf.s, pos = pos+1, pos+1+ylen
		}
		pos++
		pair.n = pos - pair.s
		if k == 0 {
			if u := &sc[up]; u.a == v {
				u.a = nd
			} else {
				u.b = nd
			}
		}
		child, u := nd, up
		for i, o := range cut {
			pos++
			w.move(sc, p.sc[o].s, p.sc[o].s+p.sc[o].n, pos-p.sc[o].s)
			pos += p.sc[o].n + 1
			s := &sc[u]
			s.a, s.b, s.min = child, o, y
			if u != p.root {
				s.s = pair.s - int32(i) - 1
			}
			s.n = pos - s.s
			child, u = u, p.sc[u].up
		}
		for u := top; u != p.root; {
			u = p.sc[u].up
			sc[u].n += grow
		}
		w.move(sc, p.sc[top].s+p.sc[top].n, int32(len(p.out)), grow)
		d.root = p.root
	}

	d.sc, d.x, d.xlabel = sc, int32(x), w.label(int32(x))
	// AttachLeaf keeps e's first end on e and hangs its second off half.
	d.split, d.half, d.low = e, p.edges, [3]int32{v, nd, lf}
	if w.t.edges[e].a == up {
		d.low = [3]int32{nd, v, lf}
	}
	w.cur = d
	w.Stats.Derived++
	w.Stats.Copied += int64(len(d.out))
	return true
}

// listWritten lists, in order, the walked base's nodes as the walk wrote them
// — a node, its first child's subtree, its second's — which is also the order
// of their offsets; the lowest leaf, which the root's parentheses write, is
// not among them. Derive does it once per walk, so that a walk nobody derives
// from pays nothing for it.
func (w *NewickWriter) listWritten() {
	sc := w.walked.sc
	order, st := w.order[:0], append(w.stack[:0], w.walked.root)
	for len(st) > 0 {
		x := st[len(st)-1]
		st = st[:len(st)-1]
		order = append(order, x)
		if s := &sc[x]; s.a != NoNode {
			st = append(st, s.b, s.a)
		}
	}
	w.order, w.stack, w.walked.listed = order, st, true
}

// move shifts by by, in records sc copied from the walked base's, the nodes
// the walk wrote in [from, to) of its rendering: a run of the write order.
func (w *NewickWriter) move(sc []nwNode, from, to, by int32) {
	walked, order := w.walked.sc, w.order
	written := func(s int32) int {
		return sort.Search(len(order), func(i int) bool { return walked[order[i]].s >= s })
	}
	for _, u := range order[written(from):written(to)] {
		sc[u].s += by
	}
}

// lower returns the end of edge e away from base b's root.
func (w *NewickWriter) lower(b *nwBase, e int32) int32 {
	if b.split != NoEdge {
		switch e {
		case b.split:
			return b.low[0]
		case b.half:
			return b.low[1]
		case b.half + 1:
			return b.low[2]
		}
	}
	v, u := w.t.edges[e].a, w.t.edges[e].b
	if b.sc[u].up == v {
		return u
	}
	return v
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
	b := w.cur
	at := len(dst)
	v := w.lower(b, e)
	dst, _ = w.splice(dst, b, v)
	if b.x < b.sc[v].min && v != b.root {
		w.Stats.Recut++
	} else {
		w.Stats.Spliced++
	}
	w.Stats.Copied += int64(len(dst) - at)
	return dst
}

// splice appends base b's tree with b's leaf on the edge above v (see
// AppendWith), and returns the highest node whose subtree it wrote other than
// as one range of the base, with the siblings the new pair rose past in
// w.stack, lowest first; for v the root, the root and nothing.
func (w *NewickWriter) splice(dst []byte, b *nwBase, v int32) ([]byte, int32) {
	sc, base, x := b.sc, b.out, b.x
	first := x < sc[v].min
	below := base[sc[v].s : sc[v].s+sc[v].n]
	if v == b.root {
		// "(lo,A,B);" becomes "(lo,(A,B),x);" or "(lo,x,(A,B));".
		ab := sc[sc[v].a].s
		dst = append(dst, base[:ab]...)
		if first {
			dst = append(append(dst, b.xlabel...), ',')
		}
		dst = append(append(append(dst, '('), base[ab:len(below)-1]...), ')')
		if !first {
			dst = append(append(dst, ','), b.xlabel...)
		}
		w.stack = w.stack[:0]
		return append(dst, ')', ';'), v
	}
	top := v
	cut := w.stack[:0]
	for first && top != b.root {
		u := &sc[sc[top].up]
		o := u.a
		if o == top {
			o = u.b
		} else if sc[o].min < x {
			break
		}
		cut, top = append(cut, o), sc[top].up
	}
	// What precedes top's subtree, then one '(' for each node from top down
	// to the new pair: the root opens with the lowest leaf instead.
	open := len(cut) + 1
	if top == b.root {
		dst = append(dst, base[:sc[sc[top].a].s]...)
		open--
	} else {
		dst = append(dst, base[:sc[top].s]...)
	}
	for ; open > 0; open-- {
		dst = append(dst, '(')
	}
	if first {
		dst = append(append(append(dst, b.xlabel...), ','), below...)
	} else {
		dst = append(append(append(dst, below...), ','), b.xlabel...)
	}
	dst = append(dst, ')')
	for _, o := range cut {
		dst = append(append(append(dst, ','), base[sc[o].s:sc[o].s+sc[o].n]...), ')')
	}
	w.stack = cut
	return append(dst, base[sc[top].s+sc[top].n:]...), top
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
