// Package search implements the Gentrius branch-and-bound search (the
// paper's Algorithm 1) as an iterative, steppable engine plus a serial
// runner with the paper's two heuristics and three stopping rules.
//
// A Step call performs one taxon insertion or one taxon removal — or, when a
// single taxon remains, every insertion and removal of that taxon's frame at
// once, without performing them: each of the frame's branches is a stand tree
// (see finalFrame); or, when two remain, one insertion of the second-to-last
// taxon, the last taxon's frame under it and the removal at once, without
// performing them either (see lookAhead). The trees are rendered, when
// someone wants them, by cutting them from renderings of the states they
// share, which the Newick writer derives from one walk of the state the
// engine starts from (see base).
//
// An engine books an insertion, rather than making it, wherever it
// restructures nothing (terrace.Overlay): the counts and branch lists of the
// state it leads to follow from the Terrace's by the additive rule, and its
// removal touches nothing. Where an insertion would restructure, the bookings
// beneath it are made for real first. Either way the step is the insertion:
// the stack, its path and every event, counter and unit are the inserting
// engine's, and the Newick writer of an engine that renders follows the
// bookings as it follows the insertions. Where the third-to-last taxon books
// and its host grants the budget — no check, poll or flush of the host falls
// inside — one step takes the booking, the frame below it and the removal
// at once, without performing them either (see whole): a step is what the
// host can see.
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
	// restructures caches whether inserting the frame's taxon restructures
	// another pending taxon's admissible set (Overlay.Restructures), the same
	// for every branch since the state below the frame is: 0 until the
	// frame's first insertion or look-ahead step asks, then 1 or -1.
	restructures int8
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

	// ov holds the insertions booked above T (see insert): the top ov.Len()
	// inserted frames of the stack. Every count and branch list the engine
	// reads is the overlay's.
	ov *terrace.Overlay
	// remaining is the number of taxa missing from the state the stack
	// stands for, booked insertions counted as made: derived from T at the
	// first Step after NewEngine or Reset, then kept by every insertion and
	// removal.
	remaining int

	// after lists, for the penultimate frame lookAhead answers or the subtree
	// whole renders, the last taxon's branches in the state above it,
	// ascending, then the ids of the two edges an insertion there makes: the
	// last taxon's branches under a branch whose count is c are after[:c]
	// (listAfter).
	after []int32
	// baseTop is one more than the number of inserted frames of the state
	// the Newick writer's top base renders, 0 when it holds none (see base).
	baseTop int
	// real counts the changes the engine made to T's real state since it was
	// made (a Reset counts as one), and lists[i] is, for stack slot i, the
	// taxon whose real branches its buffer starts with, how many, and at which
	// count: under bookings the real state stays put, and a frame pushed again
	// in that slot for that taxon reuses them (see pushFrame).
	real  int
	lists []slotList

	// otherCount is the last taxon's count in the state the top penultimate
	// frame hangs off, found with the frame's other: a branch adds 0 or 2.
	otherCount int

	// budget is how many units the host lets the next Step take, and flush
	// the policy by which the host's worker publishes the engine's counters
	// (Policy.FlushDue): a step takes a booked subtree whole (see whole) only
	// where budget exceeds one unit and the subtree ends within both. A
	// Worker sets them; a bare NewEngine has neither and takes one branch a
	// step.
	budget int64
	flush  *Policy
	// third is what whole knows of the third-to-last frame it last took a
	// subtree of (see third).
	third third

	work Work
	// queries counts the count queries nextTaxon made.
	queries int64
	// The final frame the last Step consumed (see FinalFrame).
	finalTaxon int
	final      []int32

	// nw renders the trees the engine appends to block. Like T both are
	// private to the engine, so nothing is shared or locked, and only an
	// engine that renders allocates them, so a counting run never pays.
	nw      tree.NewickWriter
	block   []byte
	pending int  // trees in block
	handed  bool // a block has been handed on: the first tree has left
}

// third is what is the same under every branch of a third-to-last frame —
// the frame of a taxon x with two others, y and z, missing — while the frames
// below it and the real state stay put: found at the first branch whole
// considers, and kept for the frame's others.
type third struct {
	// at is the frame's stack slot plus one (0: none), real the engine's count
	// of real changes when it was found.
	at, real int
	// taxa are y and z, ascending, and count their counts with x not
	// inserted: x inserted at a branch adds 2 to a count iff the branch is
	// admissible for the taxon. both is how many edges are admissible for
	// both taxa.
	taxa  [2]int
	count [2]int
	both  int
	// restructures is whether inserting each restructures the other with x
	// booked, as Frame.restructures (0: not asked yet): the same at every
	// branch of x, as the rule reads no edge.
	restructures [2]int8
}

// slotList is what a stack slot's branch buffer starts with (Engine.lists).
type slotList struct {
	taxon, n int32
	real     int
}

// Work is what an engine did since it was made, beside what it found.
type Work struct {
	// Units counts transitions of the paper's machine, which inserts and
	// removes every taxon: one per insertion or removal performed, and 2m for
	// a final frame of m branches. It is the unit of Result.Steps, of the
	// stopping-rule cadence and of the simulator's clock.
	Units int64
	// Extends counts the ExtendTaxon calls made, the Materialized ones among
	// them. An insertion the paper's machine makes is made (an ExtendTaxon
	// call), booked (Booked) or a look-ahead step's.
	Extends int64
	// Booked counts the insertions the engine booked on its overlay instead
	// of making them (see Engine.insert).
	Booked int64
	// Materialized counts the booked insertions made for real afterwards,
	// because an insertion above them would restructure.
	Materialized int64
	// LookAheads counts the branches of penultimate frames (two taxa missing)
	// answered from the Terrace's counts without an insertion, Fallbacks those
	// that had to be inserted all the same.
	LookAheads, Fallbacks int64
	// Whole counts the booked subtrees of third-to-last taxa taken in one
	// step (see Engine.whole); their bookings and look-aheads are counted in
	// Booked and LookAheads too.
	Whole int64
	// Emit is the Newick writer's work.
	Emit tree.WriterStats
}

// Add accumulates o into w (the engines of a pool's workers).
func (w *Work) Add(o Work) {
	w.Units += o.Units
	w.Extends += o.Extends
	w.Booked += o.Booked
	w.Materialized += o.Materialized
	w.LookAheads += o.LookAheads
	w.Fallbacks += o.Fallbacks
	w.Whole += o.Whole
	w.Emit.Walked += o.Emit.Walked
	w.Emit.Copied += o.Emit.Copied
	w.Emit.Spliced += o.Emit.Spliced
	w.Emit.Recut += o.Emit.Recut
	w.Emit.Derived += o.Emit.Derived
	w.Emit.Walks += o.Emit.Walks
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
	return &Engine{T: t, DynamicOrder: true, ov: t.Overlay()}
}

// Reset re-aims the engine at a frame stack (a FrontierTask's Frames) — how a
// Worker starts every task on its one engine. A freshly submitted task is
// one uninserted frame, so the engine skips the getAllowedBranches call
// (paper: "skips line 2 in Algorithm 1"); a resumed in-flight task is a
// deeper stack. Frames keep their stored estimator weights, which cannot be
// re-derived once stealing has shrunk the branch lists. The branch arrays
// are aliased read-only, so the task stays re-executable verbatim, and
// nothing of the previous stack stays referenced; the slots' branch buffers,
// the overlay and the Newick scratch are kept, so a reused engine allocates
// nothing per task. A corrupt stack is refused and changes nothing. The
// Terrace is not touched (the previous stack's bookings are dropped): the
// caller brings it to the stack's base state and calls replayInserted before
// the next Step, which counts the taxa missing there.
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
		f.Taxon, f.Branches, f.idx, f.inserted, f.weight, f.other, f.restructures = fs.Taxon, fs.Branches, fs.Idx, fs.Inserted, fs.Weight, -1, 0
	}
	e.ov.Reset()
	e.real++ // the caller moves T to the stack's base state
	e.third.at = 0
	e.baseTop = 0
	e.started, e.done = false, len(frames) == 0
	return nil
}

// replayInserted applies the stack's inserted frames to the terrace, which
// must be at the stack's base state, without recounting them (the insertions
// were tallied before the snapshot). A booked insertion is a frame like any
// other in a snapshot, so it is made for real.
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

// RemainingTaxa returns how many taxa are still missing from the state the
// stack stands for, booked insertions counted as made (0 before the first
// Step).
func (e *Engine) RemainingTaxa() int { return e.remaining }

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
// ahead of one penultimate branch, and returns its kind. An insertion the
// engine books (see insert) is a transition like one it makes: the
// same event, counters and units, the Terrace untouched; where its host's
// budget allows, one step takes the booked insertion's whole subtree and
// returns EvRemoved, the last transition of it (see whole). After EvDone the
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
		e.remaining = e.T.Taxa().Len() - e.T.Agile().NumLeaves()
		if e.lists == nil {
			e.lists = make([]slotList, len(e.T.MissingTaxa())) // a slot per taxon the stack can hold
			for i := range e.lists {
				e.lists[i].taxon = -1
			}
		}
		if e.remaining > 0 && e.rendering() {
			// The state the engine starts from, which every state below it
			// derives its base from (see base).
			e.nw.SetBase(e.T.Agile())
			e.baseTop = 1
			for i := range e.frames {
				if e.frames[i].inserted {
					e.baseTop++
				}
			}
		}
		if len(e.frames) == 0 { // a fresh engine, not a Reset stack
			if e.remaining == 0 {
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
	}
	for {
		if len(e.frames) == 0 {
			e.FlushTrees()
			e.done = true
			return EvDone
		}
		f := &e.frames[len(e.frames)-1]
		if f.inserted {
			// Back out of the branch tried last, whether another follows or not:
			// the top inserted frame is booked while any is.
			if e.ov.Len() > 0 {
				e.ov.Pop()
			} else {
				e.T.RemoveTaxon()
				e.real++
			}
			if e.baseTop > len(e.frames) {
				e.dropBase()
			}
			f.inserted = false
			e.remaining++
			e.work.Units++
			return EvRemoved
		}
		if f.idx == len(f.Branches) {
			e.frames = e.frames[:len(e.frames)-1]
			continue
		}
		switch e.remaining {
		case 1:
			return e.finalFrame(f)
		case 2:
			if e.lookAhead(f) {
				return EvLookAhead
			}
		case 3:
			if e.budget > 1 && !e.restructures(f) && e.whole(f) {
				return EvRemoved
			}
		}
		e.insert(f, f.Branches[f.idx])
		f.idx++
		f.inserted = true
		e.remaining--
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
// each of the frame's branches is a stand tree: they are counted, and cut
// from the Newick writer's base of the state they share (base), without
// inserting the taxon. The paper's machine would have inserted and removed
// it once per branch, and is charged so. Tested at the step, not where the
// frame is pushed, so that a fresh frame, a Reset stack, a frame resumed
// half-way (a checkpoint of an engine that still inserted the last taxon
// takes one EvRemoved first) and a final frame that was stolen all come
// through here; the stack is left as it was after the frame's last removal.
func (e *Engine) finalFrame(f *Frame) Event {
	rest := f.Branches[f.idx:]
	m := int64(len(rest))
	f.idx = len(f.Branches)
	e.counters.StandTrees += m
	e.work.Units += 2 * m
	e.finalTaxon, e.final = f.Taxon, rest
	if e.rendering() {
		e.base()
		e.cutTrees(f.Taxon, rest)
	}
	if e.OnLeaf != nil {
		e.OnLeaf(float64(m)*f.weight, m)
	}
	return EvTreeFound
}

// insert makes or books the insertion of the top frame f's taxon x at edge,
// an id of the state the stack stands for, rendering or not. It books it on
// the overlay wherever it restructures nothing (restructures): pushFrame then
// lists the frame it leads to from the overlay's counts, and the removal
// touches no Terrace. Elsewhere x is inserted for real, after the bookings
// beneath it are. The Newick writer's bases follow either alike (see base).
// Every step, event, counter, unit, leaf mass and offer is the inserting
// engine's, and so is every stack a cut sees: the frame is inserted, its path
// step is x at edge, and a resume replays that insertion for real. A booking
// is one insertion a step — unless the host's budget lets one step take its
// whole subtree (whole) — so that limits and cuts fall where they fall for
// the inserting engine.
func (e *Engine) insert(f *Frame, edge int32) {
	if !e.restructures(f) {
		e.ov.Book(f.Taxon, edge)
		e.work.Booked++
		return
	}
	e.materialize()
	e.T.ExtendTaxon(f.Taxon, edge)
	e.work.Extends++
	e.real++
}

// materialize makes the overlay's bookings for real.
func (e *Engine) materialize() {
	if n := int64(e.ov.Materialize()); n > 0 {
		e.work.Materialized += n
		e.work.Extends += n
		e.real++
	}
}

// whole takes, in one step, the subtree of the next branch b of the
// uninserted top frame x, whose taxon is the third-to-last one missing and
// books: the booking of x at b, the frame of the next taxon y under it — each
// branch answered as lookAhead answers one, the last taxon z's count after y
// — or its dead end, and the removal of x. It does so only where the steps
// the inserting engine takes for them cost no more units than the host's
// budget and leave counters that would not yet make the host's worker
// publish: then no check, poll or flush falls between them, and the host sees
// the stack and the counters it would see after the removal. The worker's
// policy offers nothing below x (it grants no budget otherwise). The
// subtree is counted without a booking or a frame: its counts follow from
// y's and z's with x not inserted (third), by the additive rule; only leaf
// mass and the trees book x and list y's branches. Counters, units, bookings,
// look-aheads, leaf mass and trees — once per branch of y, in branch order —
// are the inserting engine's: z's trees under each branch of y are cut from
// a base the Newick writer derives with x and y there, from the rendering of
// the frame's state (base). It reports false, having changed nothing, where y
// restructures z (its branches fall back) or the subtree does not fit.
func (e *Engine) whole(x *Frame) bool {
	t := e.thirdOf(x)
	b := x.Branches[x.idx]
	var gain [2]bool
	var count [2]int64
	for k, z := range t.taxa {
		gain[k] = e.ov.EdgeAdmissible(b, z)
		count[k] = int64(t.count[k])
		if gain[k] {
			count[k] += 2
		}
	}
	// y is the taxon pushFrame would pick below x at b (nextTaxon), z the
	// other.
	i := 0
	switch {
	case !e.DynamicOrder:
		if e.Order[e.T.Depth()+e.ov.Len()+1] == t.taxa[1] {
			i = 1
		}
	case count[0] != 0 && (count[1] == 0 || e.prefer(t.taxa[1], int(count[1]), t.taxa[0], int(count[0]))):
		i = 1
	}
	cy, cz := count[i], count[1-i]
	units, c := int64(2), e.counters // the booking and the removal
	c.IntermediateStates++
	if cy == 0 {
		c.DeadEnds++
	} else {
		if e.thirdRestructures(x, i) {
			return false
		}
		both := int64(t.both)
		if gain[0] && gain[1] {
			both += 2
		}
		trees := cy*cz + 2*both
		c.IntermediateStates += cy
		c.StandTrees += trees
		if cz == 0 {
			c.DeadEnds += cy
		}
		units += 2*cy + 2*trees
	}
	if units > e.budget || e.flush.FlushDue(c) {
		return false
	}
	rendering := e.rendering()
	if rendering {
		e.base()
	}
	x.idx++
	e.counters = c
	e.work.Units += units
	e.work.Booked++
	e.work.LookAheads += cy
	e.work.Whole++
	if e.OnLeaf == nil && !rendering {
		return true
	}
	if cy == 0 {
		if e.OnLeaf != nil {
			e.OnLeaf(x.weight, 1) // the booked state is the leaf (pushFrame)
		}
		return true
	}
	// The trees, and the masses pushFrame and lookAhead would have made, bit
	// for bit: y's branches listed as pushFrame lists them, with x booked at
	// b, each answered as lookAhead answers it, and z's trees under each cut
	// from a base derived with y there, in the order lookAhead cuts them.
	xt, y, z, w := x.Taxon, t.taxa[i], t.taxa[1-i], x.weight/float64(cy)
	e.ov.Book(xt, b)
	n := len(e.frames)
	ids := e.slotBranches(e.pushSlot(), n, y) // x may move with the stack
	e.frames = e.frames[:n]
	if rendering {
		e.nw.Derive(xt, b)
		e.listAfter(z)
	}
	for _, id := range ids {
		c := cz + 2*btoi(e.ov.EdgeAdmissible(id, z))
		if rendering && c > 0 {
			e.nw.Derive(y, id)
			e.cutTrees(z, e.after[:c])
			e.nw.Pop()
		}
		if e.OnLeaf == nil {
			continue
		}
		if c == 0 {
			e.OnLeaf(w, 1)
		} else {
			e.OnLeaf(float64(c)*(w/float64(c)), c)
		}
	}
	if rendering {
		e.nw.Pop()
	}
	e.ov.Pop()
	return true
}

// thirdOf returns what is the same under every branch of the third-to-last
// top frame x (see third), found now unless it was for x and the real state
// has not changed since; the rest is found when first asked.
func (e *Engine) thirdOf(x *Frame) *third {
	t := &e.third
	if t.at == len(e.frames) && t.real == e.real {
		return t
	}
	t.at, t.real = len(e.frames), e.real
	t.restructures = [2]int8{}
	y := -1
	for k := range t.taxa {
		if y = e.ov.NextPending(y + 1); y == x.Taxon {
			y = e.ov.NextPending(y + 1)
		}
		t.taxa[k], t.count[k] = y, e.ov.PendingCount(y)
	}
	t.both = e.ov.CountBoth(t.taxa[0], t.taxa[1])
	return t
}

// thirdRestructures reports whether taxon t.taxa[k] restructures the other
// with the third-to-last top frame x's taxon booked: asked once per frame,
// by booking x at its next branch and popping it again.
func (e *Engine) thirdRestructures(x *Frame, k int) bool {
	t := &e.third
	if t.restructures[k] == 0 {
		e.ov.Book(x.Taxon, x.Branches[x.idx])
		t.restructures[k] = -1
		if e.ov.Restructures(t.taxa[k]) {
			t.restructures[k] = 1
		}
		e.ov.Pop()
	}
	return t.restructures[k] > 0
}

func btoi(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// restructures reports whether inserting the uninserted top frame f's taxon
// restructures another pending taxon (Overlay.Restructures), asked once per
// frame.
func (e *Engine) restructures(f *Frame) bool {
	if f.restructures == 0 {
		f.restructures = -1
		if e.ov.Restructures(f.Taxon) {
			f.restructures = 1
		}
	}
	return f.restructures > 0
}

// lookAhead answers the next branch of the uninserted top frame f, whose taxon
// y is the second-to-last one missing, without inserting it: where inserting
// y restructures nothing, the overlay knows how many branches the last taxon
// z would have afterwards — its count now, plus the two edges the insertion
// makes iff the branch is admissible for z — and four insertions in five of
// the paper's machine are these. One step books what the paper's machine
// books in three — the insertion, the final frame of c (or the dead end) and
// the removal, 2 + 2c transitions — and leaves the stack where that machine
// leaves it after the removal: the branch behind idx, nothing inserted. One
// branch a step, so every cut between two steps is a stack an inserting
// engine passes through too. It reports false, with nothing changed but the
// writer's base, where the insertion would restructure z's target: that
// branch is inserted like any other.
//
// A run that renders gets the c trees too, in the order the insertion would
// have found them. The additive rule read as a set: z's branches after y is
// inserted at e are its branches now, and the two edges the insertion makes
// iff e is one of them — ids above all others, so last (listAfter). The trees
// are cut from a base derived with y at e from the rendering of the frame's
// state (base).
func (e *Engine) lookAhead(f *Frame) bool {
	rendering := e.rendering()
	if f.other < 0 {
		f.other = e.otherPending(f.Taxon)
		e.otherCount = e.ov.PendingCount(f.other)
		if rendering {
			e.base()
			e.listAfter(f.other)
		}
	}
	edge := f.Branches[f.idx]
	if e.restructures(f) {
		e.work.Fallbacks++
		return false
	}
	n := e.otherCount
	if e.ov.EdgeAdmissible(edge, f.other) {
		n += 2
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
		e.nw.Derive(f.Taxon, edge)
		e.cutTrees(f.other, e.final)
		e.nw.Pop()
	}
	if e.OnLeaf != nil {
		// The mass pushFrame and finalFrame would have made of it, bit for bit.
		e.OnLeaf(float64(c)*(f.weight/float64(c)), c)
	}
	return true
}

// listAfter lists in after the branches of pending taxon z in the state the
// stack stands for — the Terrace's, then the overlay's — and behind them the
// ids of the two edges an insertion there makes: z's branches after an
// insertion at an edge admissible for it.
func (e *Engine) listAfter(z int) {
	if e.after == nil {
		e.after = make([]int32, 0, 2*e.T.Taxa().Len()) // more than a tree of every taxon has edges
	}
	ne := int32(e.T.Agile().NumEdges() + 2*e.ov.Len())
	e.after = append(e.ov.AppendBookedBranches(e.T.AppendAllowedBranches(e.after[:0], z), z), ne, ne+1)
}

// base makes the Newick writer's top base the rendering of the state the
// stack stands for, its top frame uninserted: from the base it holds, by
// deriving the insertions made or booked since (tree.NewickWriter.Derive),
// else by walking the Terrace's real state (SetBase) and deriving the bookings
// above it — or, where the writer is full, by making the bookings real and
// walking that. A base is kept for each inserted frame from there on and
// dropped at the frame's removal, and materializing bookings leaves theirs as
// they are, since the Terrace makes them at the ids they were booked with: a
// task walks its tree once, and again only where its stack outgrows the
// writer's budget (tree.NewickWriter.Full).
func (e *Engine) base() {
	d := len(e.frames) - 1
	if e.baseTop == 0 {
		e.nw.SetBase(e.T.Agile())
		e.baseTop = d - e.ov.Len() + 1
	}
	for e.baseTop <= d && !e.nw.Full() {
		f := &e.frames[e.baseTop-1]
		e.nw.Derive(f.Taxon, f.Branches[f.idx-1])
		e.baseTop++
	}
	if e.baseTop <= d {
		// The writer is full: walk the state the stack stands for, its
		// bookings made real.
		e.materialize()
		e.nw.SetBase(e.T.Agile())
		e.baseTop = d + 1
	}
}

// dropBase pops the writer's top base, its frame's insertion removed.
func (e *Engine) dropBase() {
	e.nw.Pop()
	if e.baseTop--; e.nw.Bases() == 0 {
		e.baseTop = 0
	}
}

// otherPending returns the missing taxon that is not x, two being missing.
func (e *Engine) otherPending(x int) int {
	for y := e.ov.NextPending(0); y >= 0; y = e.ov.NextPending(y + 1) {
		if y != x {
			return y
		}
	}
	panic("search: two taxa missing, one found")
}

// pushFrame selects the next taxon (dynamic heuristic or static order),
// lists its admissible branches and pushes the frame, reusing the stack
// slot's branch buffer when one is available: the overlay's booked branches
// behind the real ones, which are still in the buffer when the slot's last
// frame had the same taxon and the real state has not changed since. It
// reports whether the frame has at least one branch; a branchless frame is a
// dead end and is tallied here.
func (e *Engine) pushFrame() bool {
	n := len(e.frames)
	if e.third.at == n+1 {
		e.third.at = 0 // a new frame in the slot of the one third holds
	}
	f := e.pushSlot()
	f.Taxon, _ = e.nextTaxon()
	f.other = -1
	f.Branches, f.idx, f.inserted, f.restructures = e.slotBranches(f, n, f.Taxon), 0, false, 0
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

// slotBranches lists taxon x's branches into f's buffer, f being stack slot
// n's frame: the real ones, reused from the buffer where the slot's last list
// was x's and the real state has not changed since, then the overlay's booked
// ones.
func (e *Engine) slotBranches(f *Frame, n, x int) []int32 {
	l := &e.lists[n]
	if int(l.taxon) != x || l.real != e.real {
		f.buf = e.T.AppendAllowedBranches(f.buf[:0], x)
		*l = slotList{taxon: int32(x), n: int32(len(f.buf)), real: e.real}
	}
	f.buf = e.ov.AppendBookedBranches(f.buf[:l.n], x)
	return f.buf
}

// nextTaxon applies the dynamic taxon insertion heuristic or the fixed order
// and returns the taxon with its count. The dynamic rule is the reference one
// on cached counts: in MissingTaxa order, the first pending taxon with no
// admissible branch wins at once, else the first with the fewest (the most
// under OrderMaxBranches; under OrderMinBranchesTieDegree a tie goes to the
// higher Terrace.Degree). Only the source of the counts differs from the
// reference (refNextTaxon in the tests): the overlay's PendingCount, not a
// fresh CountAllowedBranches per taxon. Every count it reads is counted in
// queries.
func (e *Engine) nextTaxon() (x, c int) {
	if !e.DynamicOrder {
		x = e.Order[e.T.Depth()+e.ov.Len()]
		e.queries++
		return x, e.ov.PendingCount(x)
	}
	best, bestCount, n := -1, -1, int64(0)
	for x := e.ov.NextPending(0); x >= 0; x = e.ov.NextPending(x + 1) {
		c := e.ov.PendingCount(x)
		n++
		if c == 0 {
			e.queries += n
			return x, 0 // forced dead end: select immediately
		}
		if best == -1 || e.prefer(x, c, best, bestCount) {
			best, bestCount = x, c
		}
	}
	e.queries += n
	return best, bestCount
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

// cutTrees renders one stand tree per edge, taxon x there, cut from the
// writer's top base.
func (e *Engine) cutTrees(x int, edges []int32) {
	for _, ed := range edges {
		at := e.openTree()
		e.block = e.nw.AppendWith(e.block, x, ed)
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
