// Package search implements the Gentrius branch-and-bound search (the
// paper's Algorithm 1) as an iterative, steppable engine plus a serial
// runner with the paper's two heuristics and three stopping rules.
//
// A Step call performs one taxon insertion or one taxon removal — or, when a
// single taxon remains, every insertion and removal of that taxon's frame at
// once, without performing them: each of the frame's branches is a stand tree
// (see finalFrame); or, when two remain, one insertion of the second-to-last
// taxon, the last taxon's frame under it and the removal at once, without
// performing them either (see lookAhead). When three remain, an engine that
// renders nothing books the insertion of the third-to-last taxon on its stack
// instead of performing it, where the Terrace's counts tell every number of
// the frame below (see book): the step is the insertion all the same. The
// trees are rendered, when someone wants them, from one rendering of the
// state a penultimate frame hangs off.
// The same engine drives the serial runner, the goroutine pool and the
// deterministic virtual-time multicore simulator, which are costed in the
// paper machine's transitions (Units), not in Step calls.
package search

import (
	"fmt"
	"strings"

	"gentrius/internal/terrace"
	"gentrius/internal/tree"
)

// Event is the kind of state transition a Step performed.
type Event int8

// Step outcomes.
const (
	EvInserted  Event = iota // a taxon was inserted; the state is intermediate
	EvTreeFound              // the last taxon's frame was consumed: one stand tree per branch
	EvDeadEnd                // a taxon was inserted, and the resulting state is a dead end
	EvRemoved                // a taxon was removed (backtrack)
	EvLookAhead              // a branch of the second-to-last taxon was counted, with the last taxon's frame or the dead end under it, without inserting either
	EvDone                   // the search space is exhausted
)

// PathStep is one element of a branch-and-bound path: taxon inserted at an
// agile tree edge. Edge ids are Terrace-instance independent (see terrace docs),
// so paths replay across workers — and, serialized inside a checkpoint
// frontier, across processes and thread counts.
type PathStep struct {
	Taxon int   `json:"taxon"`
	Edge  int32 `json:"edge"`
}

// Counters aggregates the three quantities Gentrius reports and bounds.
type Counters struct {
	StandTrees         int64
	IntermediateStates int64
	DeadEnds           int64
}

// Add accumulates o into c.
func (c *Counters) Add(o Counters) {
	c.StandTrees += o.StandTrees
	c.IntermediateStates += o.IntermediateStates
	c.DeadEnds += o.DeadEnds
}

// Frame is one level of the explicit branch-and-bound stack: a taxon and the
// admissible branches remaining to try for it.
type Frame struct {
	Taxon    int
	Branches []int32
	idx      int
	inserted bool
	// booked marks an inserted frame whose insertion the Terrace has not
	// seen: a counting engine booked it (see book), and its removal touches
	// nothing but the frame.
	booked bool
	// bookable caches, on a frame whose taxon is the third-to-last one
	// missing, whether its insertions may be booked: 0 until the frame's
	// first insertion asks, then 1 or -1.
	bookable int8
	// based is set by the frame's first look-ahead step when the engine
	// renders and the Newick writer holds the rendering of the frame's state,
	// from which each branch derives the base its final frame's trees are cut
	// from.
	based bool
	// other is, on a frame whose taxon is the second-to-last one missing, the
	// last one: found by the frame's first look-ahead step (-1 until then).
	other int

	// weight is the per-branch leaf mass of this frame under the weighted
	// backtrack estimator (obs.Estimator): the parent frame's per-branch
	// weight divided by the number of admissible branches this frame had
	// when pushed — counted BEFORE any work stealing shrank Branches, so
	// stolen branches carry the same weight on whichever worker explores
	// them and the global leaf mass still telescopes to exactly 1.
	weight float64

	// buf is the engine-owned backing storage for Branches, recycled when
	// the stack slot is reused so the steady-state step loop allocates
	// nothing. A restored frame (Reset) does not use it: its Branches alias
	// the task or checkpoint and are only ever read.
	buf []int32
}

// BranchWeight returns the per-branch leaf mass of this frame — what each
// branch's whole subtree contributes to the estimator's fraction-complete
// sum. Steal callbacks stamp stolen tasks with it.
func (f *Frame) BranchWeight() float64 { return f.weight }

// OrderHeuristic selects how the next taxon to insert is chosen. The paper
// uses OrderMinBranches ("dynamic taxon insertion"); the alternatives
// implement its future-work direction of exploring different insertion-order
// heuristics (Sec. V).
type OrderHeuristic int8

// Insertion-order heuristics.
const (
	// OrderMinBranches picks the remaining taxon with the fewest admissible
	// branches, ties by taxon id — the paper's heuristic.
	OrderMinBranches OrderHeuristic = iota
	// OrderMinBranchesTieDegree is OrderMinBranches with ties broken by the
	// number of constraint trees containing the taxon (most-constrained
	// first), then by id.
	OrderMinBranchesTieDegree
	// OrderMaxBranches picks the taxon with the *most* admissible branches
	// (an anti-heuristic, useful as a diagnostic and in the order-heuristic
	// experiment); dead-end taxa still win immediately.
	OrderMaxBranches
)

func (h OrderHeuristic) String() string {
	switch h {
	case OrderMinBranchesTieDegree:
		return "min-branches/tie-degree"
	case OrderMaxBranches:
		return "max-branches"
	default:
		return "min-branches"
	}
}

// Engine is the iterative Gentrius search over one Terrace instance.
type Engine struct {
	T        *terrace.Terrace
	frames   []Frame
	counters Counters
	done     bool
	started  bool

	// DynamicOrder selects the remaining taxon with the fewest admissible
	// branches at each step (the paper's dynamic taxon insertion heuristic).
	// When false, taxa are inserted in the fixed order given by Order.
	DynamicOrder bool
	// Heuristic refines the dynamic selection (see OrderHeuristic); the
	// zero value is the paper's min-branches rule.
	Heuristic OrderHeuristic
	// Order is the static insertion order used when DynamicOrder is false,
	// indexed by the Terrace's depth: a permutation of T.MissingTaxa().
	Order []int

	// OnFramePushed, if set, is called after each new frame with two or more
	// branches is pushed (excluding task-seeded root frames). The callee may
	// steal a suffix of f.Branches by returning n > 0: the last n branches
	// are handed off and removed from the frame. Used for work stealing.
	OnFramePushed func(f *Frame) int

	// OnTrees, if set, receives the stand trees found, in blocks: n canonical
	// Newick strings, each newline-terminated, valid during the call. A block
	// is handed on when the next tree would take it past BlockSize, at every
	// FlushTrees, when the search space is exhausted, and alone for the
	// engine's first tree. The callee returns the buffer the next block is
	// rendered into: the one it was handed, when it is done with it, or
	// another (nil: the engine allocates one). With OnTrees and OnTree both
	// nil nothing is rendered or allocated.
	OnTrees func(block []byte, n int) []byte

	// OnTree, if set, is called with the canonical Newick string of every
	// stand tree found, when its block is handed on (see OnTrees): the block
	// read through EachTree, one string allocated per block.
	OnTree func(newick string)

	// OnLeaf, if set, receives the random-descent probability of the leaves
	// the engine closes — the stand trees of a final frame, or a dead end —
	// and their number, feeding the weighted backtrack estimator (see
	// obs.Estimator). The mass summed over an exhaustive run of this engine's
	// space totals the engine's share of the global search space (1.0 for a
	// NewEngine, the task's Mass after a Reset).
	OnLeaf func(mass float64, leaves int64)

	// pair is, while a frame's bookable answer is 1, the frame's two other
	// pending taxa, ascending.
	pair [2]int
	// gain is, while an insertion is booked, what it adds to the count of the
	// last taxon of the penultimate frame above it: 2 iff the booked edge is
	// admissible for that taxon, else 0.
	gain int

	// after lists, for the based frame, the last taxon's branches in the
	// frame's state, ascending, then the ids of the two edges an insertion
	// of the frame's taxon makes: the last taxon's branches under a branch
	// whose count is c are after[:c].
	after []int32

	work Work
	// The final frame the last Step consumed (see FinalFrame).
	finalTaxon int
	final      []int32

	// nw renders the trees renderFinal appends to block. Like T both are
	// private to the engine, so nothing is shared or locked, and both are
	// allocated by the first tree rendered, so a counting run never pays.
	nw      tree.NewickWriter
	block   []byte
	pending int  // trees in block
	handed  bool // a block has been handed on: the first tree has left
}

// Work is what an engine did since it was made, beside what it found.
type Work struct {
	// Units counts transitions of the paper's machine, which inserts and
	// removes every taxon: one per insertion or removal performed, and 2m for
	// a final frame of m branches. It is the unit of Result.Steps, of the
	// stopping-rule cadence and of the simulator's clock.
	Units int64
	// Extends counts the ExtendTaxon calls made. Insertions of the
	// third-to-last taxon a counting engine booked are not among them
	// (Booked): an insertion the paper's machine makes is one of the two, or
	// a look-ahead step's.
	Extends int64
	// Booked counts the insertions booked on the stack without an ExtendTaxon
	// call (see Engine.book).
	Booked int64
	// LookAheads counts the branches of penultimate frames (two taxa missing)
	// answered from the Terrace's counts without an insertion, Fallbacks those
	// that had to be inserted all the same.
	LookAheads, Fallbacks int64
	// Emit is the Newick writer's work.
	Emit tree.WriterStats
}

// Add accumulates o into w (the engines of a pool's workers).
func (w *Work) Add(o Work) {
	w.Units += o.Units
	w.Extends += o.Extends
	w.Booked += o.Booked
	w.LookAheads += o.LookAheads
	w.Fallbacks += o.Fallbacks
	w.Emit.Walked += o.Emit.Walked
	w.Emit.Copied += o.Emit.Copied
	w.Emit.Spliced += o.Emit.Spliced
	w.Emit.Recut += o.Emit.Recut
	w.Emit.Derived += o.Emit.Derived
}

// Work returns the engine's work so far.
func (e *Engine) Work() Work {
	w := e.work
	w.Emit = e.nw.Stats
	return w
}

// FinalFrame returns the taxon and the branches of the final frame the last
// Step consumed, when it returned EvTreeFound: one stand tree per branch, in
// the order OnTree received them. The initial tree being the stand's one tree
// has no branches. After EvLookAhead it returns the last taxon — the one whose
// frame was answered uninserted — and, in a run that renders, its branches in
// the state with the second-to-last inserted, ids as ExtendTaxon gives them,
// one tree each in OnTree's order; in a run that renders nothing, no branches:
// the step knows how many there are (the counters moved by it), not which.
// The slice is valid until the next Step and must not be changed.
func (e *Engine) FinalFrame() (taxon int, branches []int32) { return e.finalTaxon, e.final }

// LookedAhead returns the branch the last Step answered when it returned
// EvLookAhead: the second-to-last taxon and the edge it was not inserted on.
func (e *Engine) LookedAhead() PathStep {
	f := &e.frames[len(e.frames)-1]
	return PathStep{Taxon: f.Taxon, Edge: f.Branches[f.idx-1]}
}

// BlockSize bounds a block of trees handed to OnTrees, unless one tree alone
// is longer: large enough that a write or a channel send per block is noise
// beside rendering it, small enough to sit in a core's cache until then.
const BlockSize = 32 << 10

// EachTree calls fn with every tree of a block as a string: a substring of
// block, so that the per-tree form of the stream costs one string per block,
// converted once by whoever holds the block as bytes. A string fn retains
// keeps its whole block alive.
func EachTree(block string, fn func(newick string)) {
	for block != "" {
		var nw string
		nw, block, _ = strings.Cut(block, "\n")
		fn(nw)
	}
}

// TreeSink is the one consumer of a run's blocks of stand trees (see
// Options.OnTrees) that gives the caller each form it asked for: the block to
// onTrees as it is, then, converted to a string once, every tree cut from it
// appended to *trees when collect is set and passed to onTree. It is nil when
// none is asked for: nobody wants the trees, and none need be rendered. B is
// the form the caller holds blocks in — an engine's bytes, or strings already
// (the fleet's merged shards), which are cut without a copy.
func TreeSink[B []byte | string](collect bool, trees *[]string, onTree func(newick string), onTrees func(newicks []byte, n int)) func(block B, n int) {
	each := onTree
	if collect {
		each = func(nw string) {
			*trees = append(*trees, nw)
			if onTree != nil {
				onTree(nw)
			}
		}
	}
	if each == nil && onTrees == nil {
		return nil
	}
	return func(block B, n int) {
		if onTrees != nil {
			onTrees([]byte(block), n)
		}
		if each != nil {
			EachTree(string(block), each)
		}
	}
}

// NewEngine returns an engine exploring the full search space below the
// terrace's current state, selecting taxa with the dynamic heuristic.
func NewEngine(t *terrace.Terrace) *Engine {
	return &Engine{T: t, DynamicOrder: true}
}

// Reset re-aims the engine at a frame stack (a FrontierTask's Frames) — how a
// Worker starts every task on its one engine. A freshly submitted task is
// one uninserted frame, so the engine skips the getAllowedBranches call
// (paper: "skips line 2 in Algorithm 1"); a resumed in-flight task is a
// deeper stack. Frames keep their stored estimator weights, which cannot be
// re-derived once stealing has shrunk the branch lists. The branch arrays
// are aliased read-only, so the task stays re-executable verbatim, and
// nothing of the previous stack stays referenced; the slots' branch buffers
// and the Newick scratch are kept, so a reused engine allocates nothing per
// task. A corrupt stack is refused and changes nothing. The Terrace is not
// touched: the caller brings it to the stack's base state and calls
// replayInserted before the next Step.
func (e *Engine) Reset(frames []FrameSnapshot) error {
	if err := validateTaskFrames(frames, false); err != nil {
		return fmt.Errorf("search: %w", err)
	}
	e.frames = e.frames[:cap(e.frames)]
	for i := range e.frames {
		e.frames[i].Branches = nil
	}
	e.frames = e.frames[:0]
	for _, fs := range frames {
		f := e.pushSlot()
		f.Taxon, f.Branches, f.idx, f.inserted, f.weight, f.other, f.based, f.booked, f.bookable = fs.Taxon, fs.Branches, fs.Idx, fs.Inserted, fs.Weight, -1, false, false, 0
	}
	e.started, e.done = true, len(frames) == 0
	return nil
}

// replayInserted applies the stack's inserted frames to the terrace, which
// must be at the stack's base state, without recounting them (the insertions
// were tallied before the snapshot). A booked insertion is a frame like any
// other in a snapshot, so it is replayed for real.
func (e *Engine) replayInserted() {
	for i := range e.frames {
		if f := &e.frames[i]; f.inserted {
			e.T.ExtendTaxon(f.Taxon, f.Branches[f.idx-1])
			e.work.Extends++
		}
	}
}

// pushSlot extends the stack by one frame, reusing the slot (and with it the
// branch buffer) a popped frame left behind when there is one.
func (e *Engine) pushSlot() *Frame {
	n := len(e.frames)
	if cap(e.frames) > n {
		e.frames = e.frames[:n+1]
	} else {
		e.frames = append(e.frames, Frame{})
	}
	return &e.frames[n]
}

// SnapshotFrames appends the engine's current frame stack (with estimator
// weights) to buf — the in-flight half of a frontier snapshot. Only call
// while the engine is quiesced (between Step calls).
func (e *Engine) SnapshotFrames(buf []FrameSnapshot) []FrameSnapshot {
	for i := range e.frames {
		f := &e.frames[i]
		buf = append(buf, FrameSnapshot{
			Taxon:    f.Taxon,
			Branches: append([]int32(nil), f.Branches...),
			Idx:      f.idx,
			Inserted: f.inserted,
			Weight:   f.weight,
		})
	}
	return buf
}

// Counters returns the transitions tallied so far by this engine.
func (e *Engine) Counters() Counters { return e.counters }

// Done reports whether the engine's search space is exhausted.
func (e *Engine) Done() bool { return e.done }

// RemainingTaxa returns how many taxa are still missing from the agile tree,
// a booked insertion counted as made.
func (e *Engine) RemainingTaxa() int {
	n := e.T.Taxa().Len() - e.T.Agile().NumLeaves()
	if k := len(e.frames); k > 0 && e.frames[k-1].booked || k > 1 && e.frames[k-2].booked {
		n--
	}
	return n
}

// Path returns the insertion path from the engine's base state to the
// current state, appended to buf: a booked insertion included, so the path is
// the one an inserting engine would give.
func (e *Engine) Path(buf []PathStep) []PathStep {
	for i := range e.frames {
		f := &e.frames[i]
		if f.inserted {
			buf = append(buf, PathStep{Taxon: f.Taxon, Edge: f.Branches[f.idx-1]})
		}
	}
	return buf
}

// Step performs one state transition, consumes one final frame or looks
// ahead of one penultimate branch, and returns its kind. An insertion a
// counting engine books (see book) is a transition like one it makes: the
// same event, counters and units, the Terrace untouched. After EvDone the
// terrace is back at the engine's base state.
func (e *Engine) Step() Event {
	if e.done {
		return EvDone
	}
	return e.step()
}

func (e *Engine) step() Event {
	if !e.started {
		e.started = true
		if e.RemainingTaxa() == 0 {
			// The input trees admit exactly the (already complete) tree.
			e.counters.StandTrees++
			e.work.Units++
			e.final = nil
			if e.rendering() {
				at := e.openTree()
				e.block = e.nw.Append(e.block, e.T.Agile())
				e.closeTree(at)
			}
			if e.OnLeaf != nil {
				e.OnLeaf(1, 1) // a one-leaf decision tree: the whole space
			}
			e.done = true
			return EvTreeFound
		}
		e.pushFrame()
	}
	for {
		if len(e.frames) == 0 {
			e.FlushTrees()
			e.done = true
			return EvDone
		}
		f := &e.frames[len(e.frames)-1]
		if f.inserted {
			// Back out of the branch tried last, whether another follows or not.
			if !f.booked {
				e.T.RemoveTaxon()
			}
			f.inserted, f.booked = false, false
			e.work.Units++
			return EvRemoved
		}
		if f.idx == len(f.Branches) {
			e.frames = e.frames[:len(e.frames)-1]
			continue
		}
		switch e.RemainingTaxa() {
		case 1:
			return e.finalFrame(f)
		case 2:
			if e.lookAhead(f) {
				return EvLookAhead
			}
		case 3:
			f.booked = e.book(f)
		}
		edge := f.Branches[f.idx]
		f.idx++
		if f.booked {
			e.work.Booked++
		} else {
			e.T.ExtendTaxon(f.Taxon, edge)
			e.work.Extends++
		}
		f.inserted = true
		e.work.Units++
		e.counters.IntermediateStates++
		if e.pushFrame() {
			return EvInserted
		}
		return EvDeadEnd
	}
}

// finalFrame consumes what is left of the uninserted top frame f when its
// taxon is the last one missing. Nothing is checked after an insertion, so
// each of the frame's branches is a stand tree: they are counted, and
// rendered from the state they share, without inserting the taxon. The
// paper's machine would have inserted and removed it once per branch, and is
// charged so. Tested at the step, not where the frame is pushed, so that a
// fresh frame, a Reset stack, a frame resumed half-way (a checkpoint of an
// engine that still inserted the last taxon takes one EvRemoved first) and a
// final frame that was stolen all come through here; the stack is left as
// it was after the frame's last removal.
func (e *Engine) finalFrame(f *Frame) Event {
	rest := f.Branches[f.idx:]
	m := int64(len(rest))
	f.idx = len(f.Branches)
	e.counters.StandTrees += m
	e.work.Units += 2 * m
	e.finalTaxon, e.final = f.Taxon, rest
	if e.rendering() {
		e.renderFinal(f.Taxon, rest)
	}
	if e.OnLeaf != nil {
		e.OnLeaf(float64(m)*f.weight, m)
	}
	return EvTreeFound
}

// lookAhead answers the next branch of the uninserted top frame f, whose taxon
// y is the second-to-last one missing, without inserting it: the Terrace knows
// how many branches the last taxon z would have afterwards (CountAfter, or
// countAfter's reading of it under a booked insertion), and four insertions
// in five of the paper's machine are these. One step books what the paper's
// machine books in three — the insertion, the final frame of c (or the dead
// end) and the removal, 2 + 2c transitions — and leaves the stack where that
// machine leaves it after the removal: the branch behind idx, nothing
// inserted. One branch a step, so every cut between two steps is a stack an
// inserting engine passes through too. It reports false, with nothing
// changed but the writer's base, where the insertion would restructure z's
// target: that branch is inserted like any other.
//
// A run that renders gets the c trees too, in the order the insertion would
// have found them. CountAfter's rule read as a set: z's branches after y is
// inserted at e are its branches now, and the two edges the insertion makes
// iff e is one of them — ids above all others, so last. The trees are cut
// from a base derived from the frame's rendering (baseFrame), and so are the
// trees of a branch that falls back to the insertion; where the writer cannot
// derive the bases, every branch falls back.
func (e *Engine) lookAhead(f *Frame) bool {
	rendering := e.rendering()
	if f.other < 0 {
		f.other = e.otherPending(f.Taxon)
		if rendering {
			e.baseFrame(f)
		}
	}
	edge := f.Branches[f.idx]
	n, ok := e.countAfter(f, edge)
	if !ok || rendering && !f.based {
		if f.based {
			e.nw.Derive(edge, f.other) // for the final frame the insertion pushes
		}
		e.work.Fallbacks++
		return false
	}
	c := int64(n)
	f.idx++
	e.counters.IntermediateStates++
	e.work.Units += 2 + 2*c
	e.work.LookAheads++
	e.finalTaxon, e.final = f.other, nil
	if c == 0 {
		e.counters.DeadEnds++
		if e.OnLeaf != nil {
			e.OnLeaf(f.weight, 1)
		}
		return true
	}
	e.counters.StandTrees += c
	if rendering {
		e.final = e.after[:n]
		e.nw.Derive(edge, f.other)
		e.cutTrees(e.final)
	}
	if e.OnLeaf != nil {
		// The mass pushFrame and finalFrame would have made of it, bit for bit.
		e.OnLeaf(float64(c)*(f.weight/float64(c)), c)
	}
	return true
}

// countAfter is CountAfter for the next branch of penultimate frame f, the
// top one, read one level deeper when f hangs off a booked insertion of x at
// b: the last taxon z has its count now plus gain (what x at b adds), and the
// branch's insertion adds 2 more iff the branch is admissible for z — for the
// two edges x's insertion would make, iff b is. The booking's predicate
// (Terrace.CountsAfter) makes every such answer ok.
func (e *Engine) countAfter(f *Frame, edge int32) (int, bool) {
	if k := len(e.frames); k < 2 || !e.frames[k-2].booked {
		return e.T.CountAfter(f.Taxon, edge, f.other)
	}
	n := e.T.PendingCount(f.other) + e.gain
	if edge >= int32(e.T.Agile().NumEdges()) {
		return n + e.gain, true
	}
	return n + e.gainAt(edge, f.other), true
}

// gainAt is what an insertion at agile edge ed adds to pending taxon y's
// count: the two edges it makes iff ed is admissible for y.
func (e *Engine) gainAt(ed int32, y int) int {
	if e.T.EdgeAdmissible(ed, y) {
		return 2
	}
	return 0
}

// book reports whether the next insertion of the uninserted top frame f,
// whose taxon x is the third-to-last one missing, is booked rather than made
// — marked on the stack, the Terrace untouched. It is where the engine renders
// nothing and the Terrace's counts tell the frame the insertion pushes and
// every look-ahead answer beneath it, whichever branch x takes
// (Terrace.CountsAfter, asked once per frame): pushFrame then lists the frame
// from counts (pushBooked), lookAhead answers its branches one level deeper
// (countAfter), and the removal touches no Terrace. Every step, event,
// counter, unit, leaf mass and offer is the inserting engine's, and so is
// every stack a cut sees: the frame is inserted, its path step is x at its
// branch, and a resume replays that insertion for real. The booking stays one
// branch a step, like the look-ahead, so that limits and cuts fall where
// they fall for the inserting engine. Elsewhere x is inserted.
func (e *Engine) book(f *Frame) bool {
	if f.bookable == 0 {
		f.bookable = -1
		if !e.rendering() {
			ag, k := e.T.Agile(), 0
			for _, y := range e.T.MissingTaxa() {
				if y != f.Taxon && !ag.HasTaxon(y) {
					e.pair[k], k = y, k+1
					if k == 2 {
						break
					}
				}
			}
			if e.T.CountsAfter(f.Taxon, e.pair[0], e.pair[1]) {
				f.bookable = 1
			}
		}
	}
	return f.bookable > 0
}

// pushBooked lists f, the frame the booked insertion of p's taxon x at its
// last branch b pushes, from counts. The two pending taxa have their counts
// now plus what b adds to each (gainAt); nextTaxon's rule (prefer), or the
// static order, picks one on those; its branches are its branches now and, iff b is
// admissible for it, the two edges the insertion makes — NumEdges and
// NumEdges+1, ids above every other, so last, as ExtendTaxon would list them.
func (e *Engine) pushBooked(f, p *Frame) {
	b := p.Branches[p.idx-1]
	y, z := e.pair[0], e.pair[1]
	gy, gz := e.gainAt(b, y), e.gainAt(b, z)
	var swap bool
	if e.DynamicOrder {
		// Neither count is 0, so nextTaxon's dead-end rule has nothing to
		// pick: a taxon without branches would have been chosen before x.
		swap = e.prefer(z, e.T.PendingCount(z)+gz, y, e.T.PendingCount(y)+gy)
	} else {
		swap = e.Order[e.T.Depth()+1] == z
	}
	if swap {
		y, z, gy, gz = z, y, gz, gy
	}
	f.Taxon, f.other, e.gain = y, z, gz
	f.buf = e.T.AppendAllowedBranches(f.buf[:0], y)
	if gy > 0 {
		ne := int32(e.T.Agile().NumEdges())
		f.buf = append(f.buf, ne, ne+1)
	}
}

// baseFrame renders the state penultimate frame f hangs off as the base the
// final frames of its branches derive theirs from, and lists the last taxon's
// branches with the two the insertion makes behind them (after) — unless the
// writer cannot cut their trees from it: one of the two taxa sorts before
// every leaf, so the trees are written from another root.
func (e *Engine) baseFrame(f *Frame) {
	ag := e.T.Agile()
	f.based = f.other > ag.LeafSet().Min() && e.nw.SetBase(ag, f.Taxon)
	if f.based {
		ne := int32(ag.NumEdges())
		if cap(e.after) < int(ne)+2 {
			e.after = make([]int32, 0, ne+2)
		}
		e.after = append(e.T.AppendAllowedBranches(e.after[:0], f.other), ne, ne+1)
	}
}

// otherPending returns the missing taxon that is not x, two being missing.
func (e *Engine) otherPending(x int) int {
	ag := e.T.Agile()
	for _, y := range e.T.MissingTaxa() {
		if y != x && !ag.HasTaxon(y) {
			return y
		}
	}
	panic("search: two taxa missing, one found")
}

// pushFrame selects the next taxon (dynamic heuristic or static order),
// computes its admissible branches and pushes the frame, reusing the stack
// slot's branch buffer when one is available. It reports whether the frame
// has at least one branch; a branchless frame is a dead end and is tallied
// here.
func (e *Engine) pushFrame() bool {
	n := len(e.frames)
	f := e.pushSlot()
	if n > 0 && e.frames[n-1].booked {
		e.pushBooked(f, &e.frames[n-1])
	} else {
		f.Taxon, f.other = e.nextTaxon(), -1
		f.buf = e.T.AppendAllowedBranches(f.buf[:0], f.Taxon)
	}
	f.Branches, f.idx, f.inserted, f.based, f.booked, f.bookable = f.buf, 0, false, false, false, 0
	// Per-branch weight from the parent's (1 at the root): fixed before the
	// steal callback can hand branches away, so stolen subtrees keep it.
	parentW := 1.0
	if n > 0 {
		parentW = e.frames[n-1].weight
	}
	if len(f.Branches) > 0 {
		f.weight = parentW / float64(len(f.Branches))
	}
	if len(f.Branches) >= 2 && e.OnFramePushed != nil {
		if k := e.OnFramePushed(f); k > 0 {
			f.Branches = f.Branches[:len(f.Branches)-k]
		}
	}
	if len(f.Branches) == 0 {
		e.counters.DeadEnds++
		if e.OnLeaf != nil {
			e.OnLeaf(parentW, 1) // the inserted parent state is the leaf
		}
		return false
	}
	return true
}

// nextTaxon applies the dynamic taxon insertion heuristic or the fixed order.
// The dynamic rule is the reference one on cached counts: in MissingTaxa
// order, the first pending taxon with no admissible branch wins at once,
// else the first with the fewest (the most under OrderMaxBranches; under
// OrderMinBranchesTieDegree a tie goes to the higher Terrace.Degree). Only
// the source of the counts differs from the reference (refNextTaxon in the
// tests): PendingCount, not a fresh CountAllowedBranches per taxon.
func (e *Engine) nextTaxon() int {
	if !e.DynamicOrder {
		return e.Order[e.T.Depth()]
	}
	best, bestCount := -1, -1
	ag := e.T.Agile()
	for _, x := range e.T.MissingTaxa() {
		if ag.HasTaxon(x) {
			continue
		}
		c := e.T.PendingCount(x)
		if c == 0 {
			return x // forced dead end: select immediately
		}
		if best == -1 || e.prefer(x, c, best, bestCount) {
			best, bestCount = x, c
		}
	}
	return best
}

// prefer reports whether pending taxon x, with c > 0 admissible branches and
// after best in MissingTaxa order, displaces best, with bestCount > 0, under
// the heuristic.
func (e *Engine) prefer(x, c, best, bestCount int) bool {
	switch {
	case e.Heuristic == OrderMaxBranches:
		return c > bestCount
	case c != bestCount:
		return c < bestCount
	}
	return e.Heuristic == OrderMinBranchesTieDegree && e.T.Degree(x) > e.T.Degree(best)
}

// rendering reports whether anyone wants the trees.
func (e *Engine) rendering() bool { return e.OnTrees != nil || e.OnTree != nil }

// renderFinal renders the stand trees of a final frame — the agile tree with
// taxon x on each of edges — into the block: cut from one rendering of the
// agile tree where the writer can, the base lookAhead derived under a based
// frame or one walked here (tree.NewickWriter.SetBase), and by inserting x,
// rendering and removing it where it cannot.
func (e *Engine) renderFinal(x int, edges []int32) {
	if n := len(e.frames); n > 1 && e.frames[n-2].based || e.nw.SetBase(e.T.Agile(), x) {
		e.cutTrees(edges)
		return
	}
	for _, ed := range edges {
		at := e.openTree()
		e.T.ExtendTaxon(x, ed)
		e.work.Extends++
		e.block = e.nw.Append(e.block, e.T.Agile())
		e.T.RemoveTaxon()
		e.closeTree(at)
	}
}

// cutTrees renders one stand tree per edge, cut from the writer's base.
func (e *Engine) cutTrees(edges []int32) {
	for _, ed := range edges {
		at := e.openTree()
		e.block = e.nw.AppendWith(e.block, ed)
		e.closeTree(at)
	}
}

// openTree readies the block for one more stand tree and returns where in
// the block it will start.
func (e *Engine) openTree() int {
	if e.block == nil {
		e.block = make([]byte, 0, BlockSize)
	}
	return len(e.block)
}

// closeTree ends the stand tree rendered into the block from at. The trees
// of one stand are equally long, so the block is full when another of this
// one's length would not fit.
func (e *Engine) closeTree(at int) {
	e.block = append(e.block, '\n')
	e.pending++
	if full := len(e.block)+(len(e.block)-at) > BlockSize; full || !e.handed {
		e.FlushTrees()
	}
}

// FlushTrees hands on the block, if it holds a tree. Whoever publishes or
// cuts the engine's counters calls it first, between Step calls, so that no
// count is ever ahead of its trees.
func (e *Engine) FlushTrees() {
	if e.pending == 0 {
		return
	}
	e.handed = true
	if e.OnTree != nil {
		EachTree(string(e.block), e.OnTree)
	}
	next := e.block
	if e.OnTrees != nil {
		next = e.OnTrees(e.block, e.pending)
	}
	e.block, e.pending = next[:0], 0
}

// ChooseInitialTree implements the paper's initial tree selection heuristic:
// the constraint tree sharing the largest total number of taxa with all
// other constraint trees (ties broken by lowest index).
func ChooseInitialTree(constraints []*tree.Tree) int {
	best, bestScore := 0, -1
	for i, ci := range constraints {
		score := overlapScore(constraints, i, ci)
		if score > bestScore {
			best, bestScore = i, score
		}
	}
	return best
}

// ChooseWorstInitialTree returns the constraint tree sharing the *fewest*
// taxa with the others — the anti-heuristic used by the initial-tree
// ablation experiment (the paper deactivates the heuristic and starts from a
// random constraint tree; the minimum-overlap tree realizes the unlucky end
// of that choice deterministically).
func ChooseWorstInitialTree(constraints []*tree.Tree) int {
	worst, worstScore := 0, int(^uint(0)>>1)
	for i, ci := range constraints {
		score := overlapScore(constraints, i, ci)
		if score < worstScore {
			worst, worstScore = i, score
		}
	}
	return worst
}

func overlapScore(constraints []*tree.Tree, i int, ci *tree.Tree) int {
	score := 0
	for j, cj := range constraints {
		if i == j {
			continue
		}
		score += ci.LeafSet().IntersectionCount(cj.LeafSet())
	}
	return score
}
