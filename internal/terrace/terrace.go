// Package terrace implements the state object of the Gentrius algorithm
// (the paper's "Terrace class"): the agile tree under construction, the set
// of constraint trees, the common subtrees of each agile/constraint pair,
// and the double-edge mappings between their branches.
//
// For every constraint tree T_i with taxon set Y_i, let S_i be the taxa both
// in the agile tree and in Y_i. When |S_i| >= 2 the common subtree
// C_i = T_i|S_i is maintained implicitly as a set of "common edges", each
// anchored by a pair of vertices in T_i and a pair of vertices in the agile
// tree. Two mappings are kept per constraint:
//
//   - the agile-side mapping m_i: every agile edge maps to exactly one
//     common edge (the one whose path it lies on, or whose path its hanging
//     subtree is attached to) — total and surjective;
//   - the constraint-side targets: every not-yet-inserted taxon y in Y_i
//     maps to the common edge its pendant branch in T_i projects onto.
//
// A branch b of the agile tree is admissible for taxon x iff
// m_i(b) == target_i(x) for every constraint i containing x (constraints
// with |S_i| < 2 impose no restriction): inserting x at b then keeps
// A|((cur ∪ {x}) ∩ Y_i) == T_i|((cur ∪ {x}) ∩ Y_i), which is exactly
// pairwise compatibility of the extended agile tree with each constraint.
//
// ExtendTaxon and RemoveTaxon update the mappings incrementally with exact
// LIFO undo, so a Terrace can replay and rewind arbitrary branch-and-bound
// paths; ids are deterministic, so two Terrace instances built from the same
// input that apply the same operations agree on every edge id — the property
// the parallel engine's task handoff relies on.
package terrace

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"unsafe"

	"gentrius/internal/bitset"
	"gentrius/internal/tree"
)

// ErrIncompatible is wrapped by New when two input constraint trees have
// different induced subtrees on their common taxa. No tree can display both,
// so the stand is empty; callers should report zero stand trees rather than
// failing.
var ErrIncompatible = errors.New("constraint trees are pairwise incompatible")

// NoCE marks "no common edge".
const NoCE int32 = -1

// cedge is one edge of a common subtree C_i, anchored in both trees.
type cedge struct {
	ta, tb int32 // anchor vertices in the constraint tree
	aa, ab int32 // anchor vertices in the agile tree
}

// constraintState holds the per-constraint half of the Terrace state.
type constraintState struct {
	t  *tree.Tree        // the (static) constraint tree
	ix *tree.StaticIndex // LCA/median index on t
	y  *bitset.Set       // Y_i: taxa of the constraint tree

	s      *bitset.Set // S_i = agile leaves ∩ Y_i
	sCount int

	cedges []cedge // common edges by id (stack allocation)
	cnt    []int32 // preimage size per common edge id
	m      []int32 // agile edge id -> common edge id (entries beyond the live agile edge prefix are stale)
	target []int32 // taxon id -> common edge id for pending taxa (stale for inserted/foreign taxa)

	// pre holds the packed preimage lanes of the word-parallel admissibility
	// kernel: preW words per common edge id, bit ed of row ce set iff live
	// agile edge ed has m[ed] == ce. Maintained in lockstep with m while the
	// constraint is active; see words.go for the invariants.
	pre  []uint64
	preW int32

	// acct is the lane watermark: how many insertion frames (prefix of
	// tr.undo) this constraint's lanes have accounted for. Frames at or
	// beyond acct are insertions of taxa outside the constraint whose
	// newborn-edge pair bits have not been applied yet; syncRows replays
	// them on demand (queries and splits), so insert/remove pairs that
	// cancel before any query never touch the lanes at all. m and cnt stay
	// eagerly maintained — only the packed rows are lazy.
	acct int32

	// proj caches, per pending taxon y (while the constraint is active), the
	// strict-interior median of y's pendant against its target common edge's
	// t-side anchors — the split point a future insertion of y would use.
	// tree.NoNode means "not computed yet": splits compute it lazily and
	// store it back, which removes the per-split median and per-retarget
	// median queries from the steady state. Values written without an undo
	// log are correct in both the split and the restored state (the taxon's
	// projection onto its target path is unchanged by the LIFO partner);
	// only re-projections onto the x-side part c2 are logged (projLog).
	proj []int32

	// Anchor-path structure over the agile-side mapping, maintained alongside
	// m: dir[e] is tree.NoNode when live edge e does not lie on the aa..ab
	// anchor path of its common edge m[e], and otherwise the endpoint on the
	// ab-ward side. The array parallels m and is meaningful only while the
	// constraint is active and m[e] is live. This is what makes splits
	// search-free: the split vertex q is the insertion vertex itself whenever
	// the insertion edge lies on the path, and otherwise is found by one
	// bounded sweep of the (typically tiny) x-side region.
	dir []int32

	// pending is the compact, unordered list of this constraint's taxa still
	// missing from the agile tree (maintained by ExtendTaxon/RemoveTaxon via
	// swap-removal; pendIdx maps taxon id -> position, -1 when absent). The
	// hot paths that previously swept the whole leaf-set bitset — split
	// re-targeting, first-activation, and the undo-side invalidations —
	// iterate this list instead. Its order is scramble-prone but no observable
	// state depends on it: every element is handled independently.
	pending []int32
	pendIdx []int32
}

// Terrace is the full algorithm state.
type Terrace struct {
	taxa        *tree.Taxa
	agile       *tree.Tree
	constraints []*constraintState
	initialIdx  int
	missing     []int // taxa not in the initial agile tree, ascending
	undo        []undoFrame

	// scratch buffers reused across operations (per agile node/edge)
	mark    []int32 // DFS visit stamps
	parentV []int32
	parentE []int32
	stamp   int32
	dfsBuf  []int32
	pendBuf []int32
	rowsBuf [][]uint64 // preimage lanes gathered per admissibility query

	// rooted orientation of the agile tree (root = node 0, which predates
	// every insertion and is never detached): parent vertex and parent edge
	// per node, maintained O(1) by ExtendTaxon/RemoveTaxon. Split-point
	// location walks these chains instead of flooding a preimage subgraph.
	rootedV []int32
	rootedE []int32

	// flat undo logs (see cUndo)
	moveLog []int32 // agile edge ids re-mapped by splits
	tgLog   []int32 // taxon ids re-targeted by splits
	pathLog []int32 // pre-existing agile edge ids a split put onto an anchor path
	projLog []int32 // taxon ids whose cached projection a split moved onto c2

	// incremental admissible-branch accounting (see incremental.go)
	byTaxon    [][]int32 // taxon id -> indices of constraints containing it
	notByTaxon [][]int32 // taxon id -> indices of constraints NOT containing it
	pendCnt    []int32   // cached |AllowedBranches(y)| per multi-constraint taxon
	pendOK     []bool    // cache validity per taxon
	cacheLive  []int32   // pending taxa with a (possibly stale) cache entry; compacted lazily
	cacheIdx   []int32   // taxon id -> position in cacheLive (-1 when absent)
	pendListed []bool    // taxon holds a cache slot (re-listed on LIFO undo while attached)

	// ov is the overlay of bookings above the state (see Overlay), laid out
	// in store the first time it is asked for; changes counts the
	// ExtendTaxon and RemoveTaxon calls, which its split plans are found
	// under.
	ov      Overlay
	changes uint64

	// store is the storage New or Clone laid the state out in, which Release
	// hands to the next one.
	store *storage
}

// cUndo records what ExtendTaxon did to one constraint containing the
// inserted taxon. Variable-length undo data (edges re-mapped away from ĉ,
// pending taxa re-targeted) lives in the Terrace's flat moveLog/tgLog; cUndo
// holds the ranges. Constraints NOT containing the taxon need no entry at
// all: their only change is the +2 preimage inheritance, which RemoveTaxon
// reconstructs from cs.m[frame.half] (still valid under LIFO discipline).
type cUndo struct {
	kind                 int8 // cS0, cFirst, cSplit
	ci                   int32
	che                  int32 // the split common edge ĉ (cSplit)
	oldTB                int32 // ĉ's old t-side far anchor (cSplit)
	oldAB                int32 // ĉ's old agile-side far anchor (cSplit)
	oldCnt               int32 // ĉ's old preimage count (cSplit)
	movedStart, movedEnd int32 // moveLog range (cSplit)
	tgStart, tgEnd       int32 // tgLog range (cSplit)
	pbStart, pbEnd       int32 // pathLog range (cSplit)
	pjStart, pjEnd       int32 // projLog range (cSplit)
	splitP               int32 // the split vertex p in T_i (cSplit; projLog undo value)
}

const (
	cS0 int8 = iota // |S_i| went 0 -> 1: only membership changed
	cFirst
	cSplit
)

type undoFrame struct {
	taxon         int
	edge          int32 // insertion edge (RemoveTaxon's count-accounting mirror)
	half, pendant int32 // the two edges born from the insertion
	cs            []cUndo
}

// New builds a Terrace from a set of constraint trees over a shared taxon
// universe, starting the agile tree as a copy of constraints[initialIdx].
// Every taxon of the universe must occur in at least one constraint tree and
// every constraint tree must have at least 4 leaves. A constraint sharing
// fewer than two taxa with the agile tree imposes no restriction until
// insertions make it share two. The constraint trees are kept by reference
// and must not change afterwards. When the agile tree and a constraint tree
// induce different subtrees on their common taxa the error wraps
// ErrIncompatible.
//
// The cost is O(sum of the constraint tree sizes + constraints x agile tree
// size), apart from the zeroing of the preimage lanes and the LCA index of
// each constraint tree: an int32 table of n entries for each of the
// ceil(log2 n) levels of a tree of n nodes, the one term above linear; see
// initConstraint.
//
// The state is laid out in a few slabs, the indexes all in one. They come
// from a released Terrace when they are large enough (see Release), so
// stands built back to back allocate little.
func New(constraints []*tree.Tree, initialIdx int) (*Terrace, error) {
	tr, err := newShell(constraints, initialIdx)
	if err != nil {
		return nil, err
	}
	sc := tr.store.initScratch(tr.taxa.Len())
	if err := tr.initConstraints(&sc); err != nil {
		tr.Release()
		return nil, err
	}
	tr.agile.Orient(0, tr.rootedV, tr.rootedE, sc.order, nil, nil) // the search's rooted orientation
	return tr, nil
}

// initConstraints runs initConstraint on every active constraint, grouped by
// the lowest taxon each shares with the agile tree, so that the agile tree is
// rooted at that taxon's leaf once per group rather than once per constraint.
func (tr *Terrace) initConstraints(sc *initScratch) error {
	st, nc := tr.store, len(tr.constraints)
	s0 := func(ci int32) int32 { return tr.constraints[ci].t.NodeTaxon(st.roots[ci]) }
	active := st.roots[nc:nc]
	for ci, cs := range tr.constraints {
		if cs.sCount >= 2 {
			active = append(active, int32(ci))
		}
	}
	slices.SortStableFunc(active, func(i, j int32) int { return cmp.Compare(s0(i), s0(j)) })
	a, at := tr.agile, int32(-1)
	for _, ci := range active {
		if x := s0(ci); x != at {
			at = x
			a.Orient(a.LeafNode(int(x)), sc.par, sc.pe, sc.order, sc.tin, sc.ppos)
			sc.byPosition(a)
		}
		if err := tr.initConstraint(tr.constraints[ci], sc); err != nil {
			return err
		}
	}
	return nil
}

// storage is every slab New or Clone lays a state out in, kept whole so that
// Release can hand it to the next one, which takes from each what it needs.
// A clone takes neither the indexes nor the taxon→constraint lists, which it
// shares with its original, nor the initialiser's scratch: it leaves those
// slabs as it found them.
type storage struct {
	i32    []int32 // the per-constraint and per-node int32 pieces of newShell
	ces    []cedge
	pre    []uint64
	states []constraintState
	cons   []*constraintState
	undo   []undoFrame
	cu     []cUndo
	ixs    []tree.StaticIndex
	ix     []int32 // the LCA indexes' slab
	roots  []int32 // each index's root, then the active constraints by s0
	rn     []rnode // initScratch's two trees
	order  []int32 // initScratch's orientation of the agile tree
	inc    []int32 // the taxon→constraint lists, then per-taxon counts
	lists  [][]int32
	flags  []bool
	live   []int32    // cacheLive
	logs   [4][]int32 // the undo logs, empty, as the search grew them
	sets   []bitset.Set
	agile  *tree.Tree

	// The overlay's, once asked for: its bookings, its per-constraint and
	// per-taxon counts, its split patch's and plan's edge lists, and its set
	// of booked taxa.
	bookings []booking
	ovI32    []int32
	ovWords  []uint64
}

// free is the storage of the released Terraces, the latest last, for the
// next New or Clone; bytes is what it holds in all.
var free struct {
	sync.Mutex
	list  []*storage
	bytes int
}

// maxFree is the most storage the free list keeps: an idle process holds at
// most this much for its next stands.
const maxFree = 32 << 20

// takeStorage returns the storage released last, or a new one.
func takeStorage() *storage {
	free.Lock()
	defer free.Unlock()
	n := len(free.list) - 1
	if n < 0 {
		return new(storage)
	}
	st := free.list[n]
	free.list[n] = nil
	free.list = free.list[:n]
	free.bytes -= st.bytes()
	return st
}

// putStorage lists st for the next New or Clone, dropping the oldest storage
// while the list would hold more than maxFree; st alone above it is dropped.
func putStorage(st *storage) {
	b := st.bytes()
	if b > maxFree {
		return
	}
	free.Lock()
	defer free.Unlock()
	for free.bytes+b > maxFree {
		free.bytes -= free.list[0].bytes()
		n := copy(free.list, free.list[1:])
		free.list[n] = nil
		free.list = free.list[:n]
	}
	free.list = append(free.list, st)
	free.bytes += b
}

// take returns s with length n, in its own array when that is large enough;
// whatever the array held is still there.
func take[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// takeZeroed is take with the n elements zeroed.
func takeZeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// bytes is the size of the storage's arrays, the agile tree's aside.
func (st *storage) bytes() int {
	n := size(st.i32) + size(st.ces) + size(st.pre) + size(st.states) + size(st.cons) +
		size(st.undo) + size(st.cu) + size(st.ixs) + size(st.ix) + size(st.roots) + size(st.rn) +
		size(st.order) + size(st.inc) + size(st.lists) + size(st.flags) + size(st.live) +
		size(st.logs[0]) + size(st.logs[1]) + size(st.logs[2]) + size(st.logs[3]) + size(st.sets) +
		size(st.bookings) + size(st.ovI32) + size(st.ovWords)
	for i := range st.sets {
		n += size(st.sets[i].Words())
	}
	return n
}

// size is the bytes of s's array.
func size[T any](s []T) int {
	var v T
	return cap(s) * int(unsafe.Sizeof(v))
}

// Release hands the Terrace's storage to the next New or Clone and leaves
// the Terrace empty: any use after Release panics. It is a no-op on a
// Terrace already released. Clones share their original's LCA indexes and
// taxon→constraint lists, so an original may be released only once no clone
// of it is in use any more; the drivers call it at their exit, after their
// workers are gone.
func (tr *Terrace) Release() {
	st := tr.store
	if st == nil {
		return
	}
	st.logs = [4][]int32{tr.moveLog[:0], tr.tgLog[:0], tr.pathLog[:0], tr.projLog[:0]}
	*tr = Terrace{}
	// The states point at the stand's trees: the list keeps none of them alive.
	clear(st.states)
	putStorage(st)
}

// newShell validates the input and lays the whole state out in a few slabs,
// leaving the common edges, mappings and targets of every constraint to be
// filled in. Every slice that grows with the agile tree gets its final
// capacity here, so neither the initialiser nor the search reallocates one
// (the undo logs alone still grow by doubling).
func newShell(constraints []*tree.Tree, initialIdx int) (*Terrace, error) {
	if len(constraints) == 0 {
		return nil, fmt.Errorf("terrace: no constraint trees")
	}
	if initialIdx < 0 || initialIdx >= len(constraints) {
		return nil, fmt.Errorf("terrace: initial index %d out of range", initialIdx)
	}
	taxa := constraints[0].Taxa()
	n := taxa.Len()
	covered := bitset.New(n)
	for k, c := range constraints {
		if c.Taxa() != taxa {
			return nil, fmt.Errorf("terrace: constraint %d uses a different taxon universe", k)
		}
		if c.LeafSet().Len() != n {
			return nil, fmt.Errorf("terrace: constraint %d was built before the taxon universe was complete (%d of %d taxa known); re-parse it against the final universe",
				k, c.LeafSet().Len(), n)
		}
		if c.NumLeaves() < 4 {
			return nil, fmt.Errorf("terrace: constraint %d has %d leaves (need >= 4)", k, c.NumLeaves())
		}
		covered.UnionWith(c.LeafSet())
	}
	if covered.Count() != n {
		return nil, fmt.Errorf("terrace: %d taxa occur in no constraint tree", n-covered.Count())
	}
	st := takeStorage()
	st.agile = constraints[initialIdx].CopyInto(st.agile)
	tr := &Terrace{
		taxa:       taxa,
		agile:      st.agile,
		initialIdx: initialIdx,
		store:      st,
	}
	miss := tr.agile.LeafSet().Clone()
	miss.ComplementWithin()
	tr.missing = miss.Elements()

	// Sizes: an agile tree on all n taxa has 2n-2 nodes and 2n-3 edges; the
	// traversal scratch wants two spare node slots.
	maxNodes, maxEdges := 2*n, 2*n
	edges := tr.agile.NumEdges()
	preW := (maxEdges + 63) >> 6
	// shape returns how many common edges constraint c can ever hold (one
	// lane and one count each) and how many of its taxa are pending.
	shape := func(c *tree.Tree) (rows, pend int) {
		return 2*c.NumLeaves() - 3, c.NumLeaves() - c.LeafSet().IntersectionCount(tr.agile.LeafSet())
	}
	n32, nRows := 5*maxNodes+2*n, 0 // scratch and rooted orientation; pendCnt, cacheIdx
	for _, c := range constraints {
		rows, pend := shape(c)
		n32 += 3*n + 2*maxEdges + pend + rows // target, proj, pendIdx; m, dir; pending; cnt
		nRows += rows
	}
	tr.moveLog, tr.tgLog, tr.pathLog, tr.projLog = st.logs[0], st.logs[1], st.logs[2], st.logs[3]
	st.i32 = take(st.i32, n32)
	i32 := st.i32
	// NoCE, tree.NoNode and tree.NoEdge alike; the zero-based pieces are
	// cleared below. The slab is filled in doubling copies, which run as
	// block moves rather than an element at a time.
	i32[0] = -1
	for k := 1; k < len(i32); k *= 2 {
		copy(i32[k:], i32[:k])
	}
	st.ces = take(st.ces, nRows)
	st.pre = takeZeroed(st.pre, nRows*preW)
	ces, pre := st.ces, st.pre
	st.states = take(st.states, len(constraints))
	st.cons = take(st.cons, len(constraints))
	st.ixs = take(st.ixs, len(constraints))
	st.sets = take(st.sets, len(constraints))
	st.roots = take(st.roots, 2*len(constraints))
	tr.constraints = st.cons
	for i, c := range constraints {
		rows, pend := shape(c)
		cs := &st.states[i]
		*cs = constraintState{
			t:       c,
			ix:      &st.ixs[i],
			y:       c.LeafSet(),
			s:       &st.sets[i],
			cedges:  carve(&ces, 0, rows),
			cnt:     carve(&i32, 0, rows),
			m:       carve(&i32, edges, maxEdges),
			dir:     carve(&i32, edges, maxEdges),
			target:  carve(&i32, n, n),
			proj:    carve(&i32, n, n),
			pending: carve(&i32, 0, pend),
			pendIdx: carve(&i32, n, n),
			pre:     carve(&pre, rows*preW, rows*preW),
			preW:    int32(preW),
		}
		// S_i, and the root of the constraint's index: the leaf of s0, the
		// lowest taxon of S_i, where initConstraint roots both trees.
		c.LeafSet().CopyInto(cs.s)
		cs.s.IntersectWith(tr.agile.LeafSet())
		cs.sCount = cs.s.Count()
		st.roots[i] = 0
		if cs.sCount >= 2 {
			st.roots[i] = c.LeafNode(cs.s.Min())
		}
		clear(cs.m)
		tr.constraints[i] = cs
	}
	st.ix = tree.BuildStaticIndexes(st.ixs, constraints, st.roots, st.ix)
	tr.mark = carve(&i32, maxNodes, maxNodes)
	clear(tr.mark)
	tr.parentV = carve(&i32, maxNodes, maxNodes)
	tr.parentE = carve(&i32, maxNodes, maxNodes)
	tr.rootedV = carve(&i32, maxNodes, maxNodes)
	tr.rootedE = carve(&i32, maxNodes, maxNodes)
	tr.pendCnt = carve(&i32, n, n)
	clear(tr.pendCnt)
	tr.cacheIdx = carve(&i32, n, n)
	tr.initIncremental()

	// One undo frame per insertion the agile tree can still take, each with
	// room for an entry per constraint of the best-covered missing taxon.
	deg := 0
	for _, x := range tr.missing {
		deg = max(deg, len(tr.byTaxon[x]))
	}
	st.cu = take(st.cu, len(tr.missing)*deg)
	st.undo = take(st.undo, len(tr.missing))
	us := st.cu
	for i := range st.undo {
		st.undo[i] = undoFrame{cs: carve(&us, 0, deg)}
	}
	tr.undo = st.undo[:0]
	return tr, nil
}

// carve cuts the next piece of length n and capacity c off a slab. The
// capacity bound keeps an append to one piece from running into the next.
func carve[T any](slab *[]T, n, c int) []T {
	p := (*slab)[:n:c]
	*slab = (*slab)[c:]
	return p
}

// Agile returns the current agile tree. Callers must not modify it.
func (tr *Terrace) Agile() *tree.Tree { return tr.agile }

// Taxa returns the taxon universe.
func (tr *Terrace) Taxa() *tree.Taxa { return tr.taxa }

// NumConstraints returns the number of constraint trees.
func (tr *Terrace) NumConstraints() int { return len(tr.constraints) }

// Constraint returns constraint tree i.
func (tr *Terrace) Constraint(i int) *tree.Tree { return tr.constraints[i].t }

// Degree returns how many constraint trees contain taxon x.
func (tr *Terrace) Degree(x int) int { return len(tr.byTaxon[x]) }

// InitialIndex returns the index of the constraint used as initial tree.
func (tr *Terrace) InitialIndex() int { return tr.initialIdx }

// MissingTaxa returns the taxa absent from the *initial* agile tree in
// ascending order (the insertion work list; unaffected by later insertions).
func (tr *Terrace) MissingTaxa() []int { return tr.missing }

// Depth returns the number of insertions currently applied on top of the
// initial agile tree.
func (tr *Terrace) Depth() int { return len(tr.undo) }

// Complete reports whether the agile tree contains every taxon.
func (tr *Terrace) Complete() bool { return tr.agile.NumLeaves() == tr.taxa.Len() }

// LastInserted returns the most recently inserted taxon, or -1 at depth 0.
func (tr *Terrace) LastInserted() int {
	if len(tr.undo) == 0 {
		return -1
	}
	return tr.undo[len(tr.undo)-1].taxon
}

// rnode is one vertex of a tree rooted at a leaf of S, as initConstraint
// sees it. The vertices with sub > 0 form the Steiner tree of S; its
// significant vertices — the S-leaves, the root among them, and the vertices
// with two kept children — cut it into chains, and every chain is one common
// edge.
type rnode struct {
	sub  int32 // S-leaves at or below the vertex; 0 means pruned
	kids int32 // children with sub > 0 (0 at the root, which is significant)

	// anchor is, for a kept vertex, the significant vertex at the lower end
	// of the chain holding its parent edge, and for a pruned one on the
	// constraint side the kept vertex its hanging subtree is attached to,
	// tree.NoNode until it is asked for.
	anchor int32

	// x is, for a kept vertex other than the root, the common edge id of the
	// chain holding its parent edge (constraint side), or the
	// constraint-tree vertex matching that chain's lower end (agile side),
	// which, once the chains are laid, an agile vertex inside a chain trades
	// for the chain's upper end.
	x int32
}

// upper returns the far end of the constraint-side chain whose lower end is
// significant vertex x.
func (cs *constraintState) upper(tn []rnode, x int32) int32 {
	ce := &cs.cedges[tn[x].x]
	if ce.ta == x {
		return ce.tb
	}
	return ce.ta
}

// significant reports whether a chain ends at the vertex.
func (nd *rnode) significant() bool { return nd.sub > 0 && nd.kids != 1 }

// initScratch is initConstraint's working storage, shared by all
// constraints of one New.
type initScratch struct {
	t []rnode // the constraint tree rooted at the leaf of s0, by node
	a []rnode // the agile tree rooted there, by preorder position

	// The agile tree rooted at the leaf of s0, as tree.Orient lays it out:
	// parent vertex, parent edge and preorder position (tin) per node, the
	// nodes in preorder, and by position the parent's position (ppos); and,
	// by position too, the taxon (-1 for an interior node) and the parent
	// edge (byPosition).
	par, pe, order        []int32
	tin, ppos, tax, pedge []int32
}

// initScratch takes initConstraint's working storage for a universe of taxa
// from st. Every entry is written before it is read, so nothing is cleared.
func (st *storage) initScratch(taxa int) initScratch {
	st.rn = take(st.rn, 4*taxa)
	st.order = take(st.order, 14*taxa)
	o, n := st.order, 2*taxa
	return initScratch{t: st.rn[:n], a: st.rn[n:],
		par: o[:n], pe: o[n : 2*n], order: o[2*n : 3*n],
		tin: o[3*n : 4*n], ppos: o[4*n : 5*n], tax: o[5*n : 6*n], pedge: o[6*n : 7*n]}
}

// byPosition completes the orientation of a that Orient laid out in sc
// with each preorder position's taxon and parent edge, for initConstraint's
// sweeps of the agile tree, which read it front to back and back to front.
func (sc *initScratch) byPosition(a *tree.Tree) {
	for i, v := range sc.order[:a.NumNodes()] {
		sc.tax[i], sc.pedge[i] = a.NodeTaxon(v), sc.pe[v]
	}
}

// initConstraint fills in one active constraint's half of the initial state:
// the common edges with both anchor pairs, the agile-side mapping with its
// anchor-path directions, counts and lanes, and the target and projection
// of every pending taxon — in time linear in the two trees, in two sweeps of
// each and a climb from each pending taxon.
//
// Both trees are rooted at the leaf of s0, the lowest taxon of S. Neither is
// walked here: the constraint tree's orientation is its index's, which
// newShell rooted there, and the agile tree's is sc's, which initConstraints
// lays out once for all the constraints that share s0. Each tree is first
// swept bottom-up, every kept vertex handing its counts to its parent. A
// common edge is a chain of the Steiner tree of S, named by its lower end.
// Constraint-side chains are numbered in the order a walk over the
// significant vertices by ascending id, each one's edges in adjacency order,
// first meets them, and ta is the end they are met from: ExtendTaxon
// allocates later ids on top of these, so the numbering is part of what
// Signature pins.
//
// An agile chain below significant vertex b matches the constraint chain
// below b's image, the vertex whose cluster (S-leaves below it) equals b's:
// an S-leaf's image is the leaf of its taxon, and a branching vertex's the
// upper end of the constraint chains below its two children's images, which
// must be one vertex with as many S-leaves below it as b. That vertex is an
// ancestor of both images, so its cluster holds both children's clusters,
// and with as many S-leaves it is their union. If every branching vertex of
// the agile side passes, every cluster of A|S is a cluster of T_i|S, and two
// binary trees on the same leaves with the same clusters are equal; if one
// fails, the trees differ. The agile tree's second sweep, top-down, then maps
// every edge: a kept one to its chain, a pruned one where the edge above it
// maps.
func (tr *Terrace) initConstraint(cs *constraintState, sc *initScratch) error {
	// Constraint side, by node.
	t, tn := cs.t, sc.t[:cs.t.NumNodes()]
	par, pe, order := cs.ix.Oriented()
	// Bottom-up, a vertex's children are done when it is reached: its counts
	// are final, and a kept one hands them on. A vertex with one kept child
	// is inside a chain, which ends where the child's does.
	clear(tn)
	for i := len(order) - 1; i > 0; i-- {
		v := order[i]
		nd := &tn[v]
		if x := t.NodeTaxon(v); x >= 0 && cs.s.Has(int(x)) {
			nd.sub = 1
		}
		if nd.sub == 0 {
			nd.anchor = tree.NoNode
			continue
		}
		if nd.kids != 1 {
			nd.anchor = v
		}
		nd.x = NoCE
		p := &tn[par[v]]
		p.sub += nd.sub
		p.kids++
		p.anchor = nd.anchor
	}
	root := order[0]
	tn[root] = rnode{sub: int32(cs.sCount), anchor: root, x: NoCE}
	for vi := range tn {
		nd := &tn[vi]
		if !nd.significant() {
			continue
		}
		v := int32(vi)
		adj, deg := t.Adjacency(v)
		for k := 0; k < deg; k++ {
			low := v // lower end of the chain through this edge
			if e := adj[k]; e != pe[v] {
				w := t.Other(e, v)
				if tn[w].sub == 0 {
					continue
				}
				low = tn[w].anchor
			}
			if tn[low].x != NoCE {
				continue // already met from its other end
			}
			id := int32(len(cs.cedges))
			u := low
			for {
				tn[u].x = id
				if u = par[u]; tn[u].significant() {
					break
				}
			}
			far := u
			if low != v {
				far = low
			}
			cs.cedges = append(cs.cedges, cedge{ta: v, tb: far, aa: tree.NoNode, ab: tree.NoNode})
			cs.cnt = append(cs.cnt, 0)
		}
	}
	// A pending taxon hangs off an interior vertex of exactly one chain: that
	// chain is its target and that vertex its projection. It is found by
	// climbing from the taxon's leaf, and every pruned vertex climbed notes
	// it for the next taxon of the same hanging subtree.
	for _, y := range cs.pending {
		leaf, at := t.LeafNode(int(y)), tree.NoNode
		for w := leaf; at == tree.NoNode; w = par[w] {
			if p := &tn[par[w]]; p.sub > 0 {
				at = par[w]
			} else {
				at = p.anchor
			}
		}
		for w := leaf; tn[w].anchor == tree.NoNode; w = par[w] {
			tn[w].anchor = at
		}
		cs.target[y] = tn[at].x
		cs.proj[y] = at
	}

	// Agile side, by preorder position: anchors are positions, images and
	// common-edge anchors nodes.
	n := tr.agile.NumNodes()
	an, ppos, tax, pedge, aorder := sc.a[:n], sc.ppos[:n], sc.tax[:n], sc.pedge[:n], sc.order[:n]
	clear(an)
	for i := n - 1; i > 0; i-- {
		nd := &an[i]
		switch x := tax[i]; {
		case x >= 0:
			if !cs.s.Has(int(x)) {
				continue
			}
			nd.sub, nd.anchor, nd.x = 1, int32(i), t.LeafNode(int(x))
		case nd.sub == 0:
			continue
		case nd.kids == 2:
			if tn[nd.x].sub != nd.sub {
				return fmt.Errorf("terrace: agile tree and constraint tree differ on their common taxa: %w", ErrIncompatible)
			}
			nd.anchor = int32(i)
		}
		p := &an[ppos[i]]
		p.sub += nd.sub
		if p.kids++; p.kids == 1 {
			p.anchor, p.x = nd.anchor, nd.x
		} else if p.x = cs.upper(tn, p.x); p.x != cs.upper(tn, nd.x) {
			return fmt.Errorf("terrace: agile tree and constraint tree differ on their common taxa: %w", ErrIncompatible)
		}
	}
	an[0] = rnode{sub: int32(cs.sCount), x: root}
	for i := int32(1); i < int32(n); i++ {
		nd, e, p := &an[i], pedge[i], ppos[i]
		var id int32
		if nd.sub == 0 {
			id = cs.m[pedge[p]] // the root is kept, so p is not it
		} else {
			// aa must be the end matching ta (splitCommonEdge relies on it),
			// and dir points to the ab-ward end of every path edge.
			low := nd.anchor
			id = tn[an[low].x].x
			ce := &cs.cedges[id]
			up := ce.ta == an[low].x
			if up {
				cs.dir[e] = aorder[p]
			} else {
				cs.dir[e] = aorder[i]
			}
			top := p // the chain's upper end
			if !an[p].significant() {
				top = an[p].x
			}
			switch {
			case i != low:
				nd.x = top
			case up:
				ce.aa, ce.ab = aorder[i], aorder[top]
			default:
				ce.aa, ce.ab = aorder[top], aorder[i]
			}
		}
		cs.m[e] = id
		cs.cnt[id]++
		cs.preSet(id, e)
	}
	return nil
}

// resolveTarget finds the common edge whose T_i-path strictly contains the
// attachment point of pending taxon y — by scanning all common edges for the
// unique strict-interior median — and returns both the edge and that median.
// O(|C|) per taxon: CheckInvariants re-derives targets with it; the
// initialiser reads them off the chain decomposition and incremental updates
// re-resolve locally.
func (tr *Terrace) resolveTarget(cs *constraintState, yTaxon int32) (int32, int32) {
	ly := cs.t.LeafNode(int(yTaxon))
	for id := range cs.cedges {
		ce := &cs.cedges[id]
		m := cs.ix.Median(ce.ta, ce.tb, ly)
		if m != ce.ta && m != ce.tb {
			return int32(id), m
		}
	}
	return NoCE, tree.NoNode
}

// Signature returns a cheap structural digest of the full state, used by
// tests to verify that remove(insert(state)) == state and that replaying a
// path on a fresh Terrace reproduces the state exactly.
func (tr *Terrace) Signature() string {
	var sig strings.Builder
	sig.WriteString(tr.agile.Newick())
	edges := int32(tr.agile.NumEdges())
	for ci, cs := range tr.constraints {
		fmt.Fprintf(&sig, "|c%d:s%d:", ci, cs.sCount)
		if cs.sCount >= 2 {
			for e := int32(0); e < edges; e++ {
				fmt.Fprintf(&sig, "%d,", cs.m[e])
			}
			sig.WriteByte(':')
			for e := int32(0); e < edges; e++ {
				if cs.dir[e] != tree.NoNode {
					fmt.Fprintf(&sig, "p%d>%d,", e, cs.dir[e])
				}
			}
			sig.WriteByte(':')
			for _, c := range cs.cnt {
				fmt.Fprintf(&sig, "%d,", c)
			}
			sig.WriteByte(':')
			pend := cs.y.Clone()
			pend.SubtractWith(cs.s)
			pend.ForEach(func(y int) { fmt.Fprintf(&sig, "%d>%d,", y, cs.target[y]) })
		}
	}
	return sig.String()
}
