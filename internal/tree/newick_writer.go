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
// (see there). The writer keeps a stack of such bases: Derive pushes the top
// one with one leaf more, without a walk, and Pop drops it again, so that a
// search that inserts and removes leaves in stack order walks its tree once
// and derives every further base it cuts trees from — whichever leaf it adds:
// one that sorts before every leaf roots the tree anew (see Derive).
type NewickWriter struct {
	sc     []nwNode // per tree node, indexed by node id: the walk's records
	order  []int32  // nodes breadth-first from the root; cap >= len(sc), so it never regrows
	stack  []int32  // emit pass: node ids and tok* punctuation still to write; splice: the siblings a new pair rose past, or the path turned over, each with its offset
	taxa   *Taxa    // universe the label cache belongs to
	labels []string // taxon id -> label as written (quoted if needed), "" = not yet looked at
	buf    []byte   // String's output buffer

	// The bases AppendWith cuts from: bases[0] is SetBase's walk, each one
	// above it Derive's of the one below. rec and ends describe the top one,
	// and undo holds what each derivation overwrote in rec, so that Pop
	// restores the base below in the time Derive took.
	bases []nwBase
	rec   []nwNode // per node: its record, s relative to its parent's (the root's is 0)
	ends  []edge   // per edge: its two ends, as the Tree keeps them (AttachLeaf splits the edge at the second)
	undo  []nwSaved
	// arena holds the derived bases' bytes, each base's behind the one below
	// it (room), up to budget bytes (Full).
	arena  []byte
	budget int

	// Stats counts the writer's work since it was made.
	Stats WriterStats
}

// nwBase is a rendering AppendWith cuts trees from: the bytes, the root the
// walk chose, the lowest leaf's taxon, and the tree's sizes — the ids
// AttachLeaf gives next. A derived base notes where its bytes end in the
// arena, where its records start in the undo log, the edge it split, and the
// grow bytes it added under node under, the highest one whose record it
// rewrote (NoNode: none, where it rewrote the root's), which it lifted
// through under's ancestors (lift).
type nwBase struct {
	out          []byte
	root, lo     int32
	nodes, edges int32
	end          int32
	undo         int32
	split        int32
	under, grow  int32
}

// nwSaved is a record as it was before a derivation overwrote it.
type nwSaved struct {
	id  int32
	rec nwNode
}

// WriterStats is a NewickWriter's work, in trees and bytes: Walked bytes were
// written by the two-pass walk (Append, String, SetBase) in Walks walks of
// SetBase, Copied bytes were cut from a base — by AppendWith, for Spliced
// trees in three ranges, the new leaf second in its pair, for Recut trees,
// the new leaf first in its pair, in one more per level the pair rose; and by
// Derive, for Derived bases.
type WriterStats struct {
	Walked, Copied int64
	Spliced, Recut int64
	Derived, Walks int64
}

// nwNode is the writer's view of one node of the tree being rendered.
type nwNode struct {
	up   int32 // neighbour towards the root
	min  int32 // smallest taxon id in the subtree hanging below the node
	a, b int32 // the two children, a holding the smaller minimum; NoNode on leaves
	s, n int32 // where the subtree was written: out[s : s+n] of the rendering (under a base, s from its parent's s)
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

// walk is the two-pass rendering. It leaves the per-node records of a tree of
// three or more leaves, where each subtree was written included, and the
// breadth-first order behind for SetBase.
func (w *NewickWriter) walk(dst []byte, t *Tree) []byte {
	w.universe(t.taxa)
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
			s.min, s.a, s.b = nd.taxon, NoNode, NoNode
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
	w.order, w.stack = order, st
	return append(dst, ';')
}

// universe readies the label cache for taxa. A change of universe drops the
// bases, whose labels were the other one's.
func (w *NewickWriter) universe(taxa *Taxa) {
	if w.taxa != taxa {
		w.taxa = taxa
		clear(w.labels)
		w.bases = w.bases[:0]
	}
	if n := taxa.Len(); len(w.labels) < n { // a universe may grow between calls
		w.labels = append(w.labels, make([]string, n-len(w.labels))...)
	}
}

// SetBase renders t as the one base of the trees AppendWith writes, dropping
// every base held: t with a leaf added on one of its edges. It reports false,
// and holds no base, when t has fewer than three leaves. No base refers to t
// afterwards: a base stays valid, whatever becomes of t, until its Pop, the
// next SetBase, or a rendering of a tree over another universe.
func (w *NewickWriter) SetBase(t *Tree) bool {
	w.universe(t.taxa)
	w.bases, w.undo = w.bases[:0], w.undo[:0]
	if t.NumLeaves() < 3 {
		return false
	}
	// Room for the tree with every taxon of its universe: derived bases add
	// two nodes and two edges a leaf.
	most := 2 * t.taxa.Len()
	if len(w.ends) < most {
		nodes := make([]nwNode, 2*most)
		w.sc, w.rec = nodes[:most], nodes[most:]
		w.order, w.stack = make([]int32, 0, most), make([]int32, 0, 2*most)
		w.ends = make([]edge, most)
		w.bases, w.undo = make([]nwBase, 0, t.taxa.Len()-t.NumLeaves()+1), make([]nwSaved, 0, 2*most)
	}
	b := w.push()
	if b.out == nil {
		b.out = make([]byte, 0, 16*len(t.nodes)) // a label of up to about 25 bytes a leaf
	}
	b.out = w.Append(b.out[:0], t)
	w.Stats.Walks++
	w.budget = max(minBudget, basesBudget*len(b.out))
	w.sc, w.rec = w.rec, w.sc
	sc, order := w.rec, w.order
	for i := len(order) - 1; i > 0; i-- { // children before their parents
		u := order[i]
		sc[u].s -= sc[sc[u].up].s
	}
	copy(w.ends, t.edges)
	lo := t.leaves.Min()
	l := t.leafOf[lo]
	*b = nwBase{out: b.out, root: t.Other(t.nodes[l].adj[0], l), lo: int32(lo),
		nodes: int32(len(t.nodes)), edges: int32(len(t.edges)), split: NoEdge}
	return true
}

// push adds a base to the stack and returns it.
func (w *NewickWriter) push() *nwBase {
	n := len(w.bases)
	if cap(w.bases) > n {
		w.bases = w.bases[:n+1]
	} else {
		w.bases = append(w.bases, nwBase{})
	}
	return &w.bases[n]
}

// The derived bases' budget: basesBudget times the walk's bytes, and at
// least minBudget bytes, so that no stand of up to several hundred taxa
// meets it.
const (
	basesBudget = 64
	minBudget   = 1 << 20
)

// room returns an empty buffer of size bytes for the base derived from the
// top one: the arena behind the top base's bytes. The arena grows with the
// stack — room for eight bases at first, then doubling where the stack is
// deeper than it was, up to the budget — and the bases below keep the array
// they were written into, so that a stack that has been as deep before
// allocates nothing for its bytes.
func (w *NewickWriter) room(size int) []byte {
	lo := int(w.bases[len(w.bases)-1].end)
	if lo+size > cap(w.arena) {
		c := min(max(2*cap(w.arena), 8*size), w.budget)
		w.arena = make([]byte, 0, max(c, lo+size))
	}
	return w.arena[lo : lo : lo+size]
}

// Full reports whether the derived bases hold about their budget's bytes —
// the arena has room for three more bases above the top one, and no fourth —
// so that a search that keeps a base per level of its stack walks its state
// instead of deriving a deeper one: the bases of a stack of any depth then
// hold a bounded number of bytes, a few dozen renderings of the tree.
func (w *NewickWriter) Full() bool {
	b := &w.bases[len(w.bases)-1]
	return int(b.end)+4*len(b.out) > w.budget
}

// at returns where node v's subtree starts in the rendering of the top base:
// the sum of the offsets up to the root.
func (w *NewickWriter) at(v int32) int32 {
	sc, root, at := w.rec, w.bases[len(w.bases)-1].root, int32(0)
	for ; v != root; v = sc[v].up {
		at += sc[v].s
	}
	return at
}

// Bases returns the number of bases held.
func (w *NewickWriter) Bases() int { return len(w.bases) }

// lower returns edge e's end away from the root of the top base: the end
// whose parent the other is.
func (w *NewickWriter) lower(e int32) int32 {
	ed := w.ends[e]
	if w.rec[ed.b].up == ed.a {
		return ed.b
	}
	return ed.a
}

// Derive pushes the base of the top base's tree with taxon x added as a leaf
// on its edge e, ids as AttachLeaf gives them, so that AppendWith cuts from
// that; a base must be held. The tree is not walked: the rendering is cut
// from the one below as AppendWith cuts a tree, and the records follow it in
// place. Offsets are kept from each node's parent, so only the records on the
// path the new pair rose along change — the pair, the nodes it rose past and
// their siblings — each saved for Pop first — and the ancestors above, whose
// lengths and second children's offsets grow by the bytes added, which Pop
// shrinks again (lift). Where x sorts before every leaf the pair is the new
// root (reroot). Either way the cost is the bytes spliced and one path, not
// the tree.
func (w *NewickWriter) Derive(x int, e int32) {
	n := len(w.bases)
	y, v, sc := int32(x), w.lower(e), w.rec
	ylen := int32(len(w.label(y)))
	out, top := w.splice(w.room(len(w.bases[n-1].out)+int(ylen)+3), v, y) // "(", ",", ")" and the label
	d := w.push()
	p := &w.bases[n-1]
	*d = nwBase{out: out, root: p.root, lo: p.lo, nodes: p.nodes + 2, edges: p.edges + 2,
		end: p.end + int32(len(out)), undo: int32(len(w.undo)), split: e, under: NoNode}

	sv, l := sc[v], sc[p.root].up        // l: the lowest leaf, the root's parent
	nd, lf := p.nodes, p.nodes+1         // the ids AttachLeaf gives the pair's node and the leaf
	pre := int32(len(w.label(p.lo))) + 2 // "(lo," opens the root's subtree
	pair := nwNode{up: sv.up, a: v, b: lf, min: sv.min, n: sv.n + ylen + 3}
	leaf := nwNode{up: nd, min: y, a: NoNode, b: NoNode, n: ylen}
	if y < sv.min {
		pair.a, pair.b, pair.min = lf, v, y
	}
	w.save(v)
	sc[v].up = nd
	at := int32(1) // where the pair's first child starts in it
	if v == p.root {
		// "(lo,A,B)" becomes "(lo,(A,B),y)" or "(lo,y,(A,B))": the pair is the
		// root now, and v the pair (A,B).
		w.save(sv.a)
		w.save(sv.b)
		sc[sv.a].s -= pre - 1
		sc[sv.b].s -= pre - 1
		sc[v].n = sv.n - pre + 1
		at, d.root = pre, nd
	}
	if pair.a == lf {
		leaf.s, sc[v].s = at, at+ylen+1
	} else {
		sc[v].s, leaf.s = at, at+sc[v].n+1
	}
	sc[nd], sc[lf] = pair, leaf
	switch cut := w.stack; {
	case y < p.lo:
		w.reroot(d, p, v, l, y)
	case v == p.root:
	case len(cut) == 0:
		// The pair takes v's place.
		sc[nd].s = sv.s
		w.save(sv.up)
		if u := &sc[sv.up]; u.a == v {
			u.a = nd
		} else {
			u.b = nd
		}
		w.lift(d, nd)
	default:
		// Each node the pair rose past is written (path, sibling), from
		// where top began.
		child, u := nd, sv.up
		for i := 0; i < len(cut); i += 2 {
			o := cut[i]
			w.save(u)
			w.save(o)
			s := &sc[u]
			s.a, s.b, s.min = child, o, y
			at := int32(1)
			if u == p.root {
				at = pre
			}
			sc[child].s, sc[o].s = at, at+sc[child].n+1
			s.n = sc[o].s + sc[o].n + 1
			child, u = u, s.up
		}
		if top != p.root {
			w.lift(d, top)
		}
	}
	// AttachLeaf keeps e's first end on e and hangs its second off the new
	// edge p.edges; the leaf's pendant is p.edges+1.
	w.ends[p.edges], w.ends[p.edges+1] = edge{nd, w.ends[e].b}, edge{nd, lf}
	w.ends[e].b = nd
	w.Stats.Derived++
	w.Stats.Copied += int64(len(d.out))
}

// reroot finishes the records of derived base d, the top base p's tree with
// taxon y, which sorts before every leaf, on the edge above v, from those
// Derive wrote for the pair and the leaf: y's leaf is the lowest now and the
// pair the root, written "(y,(((lo,o_m),o_m-1),…,o_1),below);", where u_1 …
// u_m is the path from v's parent up to p's root and o_k the sibling off it
// at u_k, which splice left in w.stack. The path hangs the other way: each
// u_k has the path above it, turned over, first and o_k second, and the old
// lowest leaf l hangs off u_m, or off the pair where v is p's root. Only the
// path's records, its siblings', the old lowest leaf's and those Derive wrote
// change, each saved first; no ancestor is left to lift.
func (w *NewickWriter) reroot(d, p *nwBase, v, l, y int32) {
	sc, nd, lf := w.rec, p.nodes, p.nodes+1
	w.save(l)
	sc[l] = nwNode{min: p.lo, a: NoNode, b: NoNode, n: int32(len(w.label(p.lo)))}
	a := l // what the node written next has first: the path above it
	for cut, i := w.stack, len(w.stack)-2; i >= 0; i -= 2 {
		o := cut[i]
		u := sc[o].up
		w.save(u)
		w.save(o)
		sc[a].up, sc[a].s = u, 1
		sc[o].s = sc[a].n + 2
		sc[u] = nwNode{min: p.lo, a: a, b: o, n: sc[o].s + sc[o].n + 1}
		a = u
	}
	pre := sc[lf].n + 2 // "(y,"
	sc[a].up, sc[a].s = nd, pre
	sc[v].s = pre + sc[a].n + 1
	sc[nd] = nwNode{up: lf, min: p.lo, a: a, b: v, n: int32(len(d.out)) - 1}
	sc[lf].up = NoNode
	d.root, d.lo = nd, y
}

// save notes node u's record for Pop.
func (w *NewickWriter) save(u int32) { w.undo = append(w.undo, nwSaved{u, w.rec[u]}) }

// lift adds the bytes derived base d added under node c, the highest whose
// record it rewrote, to the subtree of each ancestor of c: a second child
// after the path moves by them. Pop lifts them by -grow again, so nothing is
// saved for it.
func (w *NewickWriter) lift(d *nwBase, c int32) {
	d.under, d.grow = c, int32(len(d.out)-len(w.bases[len(w.bases)-2].out))
	w.shift(c, d.grow, d.root)
}

// shift adds grow bytes to the subtree of each ancestor of node c, up to
// root, and to the offset of a second child that follows the path.
func (w *NewickWriter) shift(c, grow, root int32) {
	sc := w.rec
	for u := sc[c].up; ; {
		s := &sc[u]
		s.n += grow
		if s.a == c {
			sc[s.b].s += grow
		}
		if u == root {
			return
		}
		c, u = u, s.up
	}
}

// Pop drops the top base: the one below it is the top again, as it was.
func (w *NewickWriter) Pop() {
	n := len(w.bases) - 1
	if b := &w.bases[n]; n > 0 {
		if b.under != NoNode {
			w.shift(b.under, -b.grow, b.root)
		}
		for i := len(w.undo) - 1; i >= int(b.undo); i-- {
			w.rec[w.undo[i].id] = w.undo[i].rec
		}
		w.undo = w.undo[:b.undo]
		w.ends[b.split].b = w.ends[b.edges-2].b
	}
	w.bases = w.bases[:n]
}

// AppendWith appends the canonical Newick string of the top base's tree with
// taxon x added as a leaf on edge e. Below the edge hangs a subtree the base
// renders as one range; with x it becomes the pair (below,x), in place, when
// x sorts after the subtree's first leaf, and nothing else moves. Otherwise
// the pair is (x,below) and now sorts by x: it rises past every sibling it
// precedes, up to the first ancestor whose other child still sorts before x,
// and the base is re-cut along that path. The edge of the lowest leaf is the
// same one level up: the rest of the tree becomes one pair, beside x. Where x
// sorts before every leaf, the tree is written from x's pair: the path from
// the edge up to the root turns over, one range of the base for each sibling
// off it (see reroot).
func (w *NewickWriter) AppendWith(dst []byte, x int, e int32) []byte {
	b, at, v := &w.bases[len(w.bases)-1], len(dst), w.lower(e)
	dst, _ = w.splice(dst, v, int32(x))
	if int32(x) < b.lo || int32(x) < w.rec[v].min && v != b.root {
		w.Stats.Recut++
	} else {
		w.Stats.Spliced++
	}
	w.Stats.Copied += int64(len(dst) - at)
	return dst
}

// splice appends the top base's tree with taxon x on the edge above v (see
// AppendWith) and returns the highest node whose subtree it wrote other than
// as one range of the base, and the siblings the new pair rose past in
// w.stack, lowest first, each followed by where its subtree starts; for v the
// root, the root and nothing; for x before every leaf, the root and the
// siblings off the path from v up to the root.
func (w *NewickWriter) splice(dst []byte, v, x int32) ([]byte, int32) {
	b := &w.bases[len(w.bases)-1]
	sc, base, xl := w.rec, b.out, w.label(x)
	at := w.at(v)
	first := x < sc[v].min
	below := base[at : at+sc[v].n]
	if x < b.lo {
		// "(x,(((lo,o_m),o_m-1),…,o_1),below);"
		cut := w.stack[:0]
		for c, s := v, at; c != b.root; c = sc[c].up {
			u := &sc[sc[c].up]
			o := u.a
			if o == c {
				o = u.b
			}
			s -= sc[c].s
			cut = append(cut, o, s+sc[o].s)
		}
		dst = append(append(append(dst, '('), xl...), ',')
		for range len(cut) / 2 {
			dst = append(dst, '(')
		}
		dst = append(dst, w.label(b.lo)...)
		for i := len(cut) - 2; i >= 0; i -= 2 {
			o, s := cut[i], cut[i+1]
			dst = append(append(append(dst, ','), base[s:s+sc[o].n]...), ')')
		}
		if v == b.root {
			// "(lo,A,B)" is "(A,B)" there.
			dst = append(append(dst, ',', '('), below[sc[sc[v].a].s:]...)
		} else {
			dst = append(append(dst, ','), below...)
		}
		w.stack = cut
		return append(dst, ')', ';'), b.root
	}
	if v == b.root {
		// "(lo,A,B);" becomes "(lo,(A,B),x);" or "(lo,x,(A,B));".
		ab := sc[sc[v].a].s
		dst = append(dst, base[:ab]...)
		if first {
			dst = append(append(dst, xl...), ',')
		}
		dst = append(append(append(dst, '('), base[ab:len(below)-1]...), ')')
		if !first {
			dst = append(append(dst, ','), xl...)
		}
		w.stack = w.stack[:0]
		return append(dst, ')', ';'), v
	}
	top := v
	cut := w.stack[:0]
	for first && top != b.root {
		up := sc[top].up
		u := &sc[up]
		o := u.a
		if o == top {
			o = u.b
		} else if sc[o].min < x {
			break
		}
		pa := at - sc[top].s
		cut, top, at = append(cut, o, pa+sc[o].s), up, pa
	}
	// What precedes top's subtree, then one '(' for each node from top down
	// to the new pair: the root opens with the lowest leaf instead.
	open := len(cut)/2 + 1
	if top == b.root {
		dst = append(dst, base[:sc[sc[top].a].s]...)
		open--
	} else {
		dst = append(dst, base[:at]...)
	}
	for ; open > 0; open-- {
		dst = append(dst, '(')
	}
	if first {
		dst = append(append(append(dst, xl...), ','), below...)
	} else {
		dst = append(append(append(dst, below...), ','), xl...)
	}
	dst = append(dst, ')')
	for i := 0; i < len(cut); i += 2 {
		o, s := cut[i], cut[i+1]
		dst = append(append(append(dst, ','), base[s:s+sc[o].n]...), ')')
	}
	w.stack = cut
	return append(dst, base[at+sc[top].n:]...), top
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
