package search

import (
	"gentrius/internal/faultinject"
	"gentrius/internal/obs"
	"gentrius/internal/terrace"
)

// Phase is what a Worker is doing with its current task.
type Phase int8

// Worker phases, in the order a task passes through them.
const (
	Idle    Phase = iota // no task; the Terrace is at I_0
	Replay               // re-inserting the task's path from I_0
	Explore              // stepping the engine through the task's frames
	Rewind               // removing the path again
)

// Host is the driver's side of the per-thread protocol: the three places a
// Worker touches state it shares with other workers, none of them on the
// per-step path. The serial runner implements it, and so does the scheduler
// of package parallel, once for both of its hosts (each adds its own Trees).
type Host interface {
	// Offer is called when the worker pushed frame f at the end of path (from
	// I_0) and the policy lets it hand off the last n of f's branches as a
	// task. It returns how many, counted from the end of f.Branches, the
	// host queued (0: no room), copying what it keeps of path and f.
	Offer(path []PathStep, f *Frame, n int) int
	// Publish receives a batch of the worker's counters, never empty.
	Publish(c Counters)
	// Trees receives a block of n stand trees (see Engine.OnTrees) and returns
	// the buffer for the next block.
	Trees(block []byte, n int) []byte
}

// Worker is the paper's per-thread protocol (Sec. III-A/B), written once for
// every driver: a private Terrace at I_0 and one engine reused for every
// task. A task is begun, then ticked through replaying its path, exploring
// its frames — offering half of each fresh frame, batching the counters —
// and rewinding to I_0. The driver owns the queue, the clock and the stop
// flag. A Worker whose Begin or Tick panicked is never ticked again: the
// run fails (PanicError), and the wrecked Terrace is released with the
// run's others.
type Worker struct {
	// Fault, if non-nil, is the run's fault injection, fired here so that it
	// means the same on every host: the TaskExec site at each Begin, the
	// EngineStep site before each explore Tick.
	Fault *faultinject.Injector

	t      *terrace.Terrace
	eng    *Engine // its counters and tree block are the unflushed batch, emptied by Flush
	policy Policy
	host   Host
	est    *obs.Estimator

	task  FrontierTask // the driver's storage, only read
	phase Phase
	pos   int // Replay: path steps applied so far
	base  int // the Terrace's depth at I_0

	mass   float64 // estimator mass and leaves closed since the last flush
	leaves int64
	path   []PathStep // scratch: the path of the frame on offer
}

// NewWorker returns an idle worker on a private Terrace at I_0 running policy
// p against host h: the run's first takes the one Start walked there — a run
// that needs no second never copies it — every other a NewTerrace, which see
// for when the second may be made. Closed-leaf mass is batched into est with
// the counters (nil: none); trees are rendered for h.Trees only if trees.
func (s *Setup) NewWorker(p Policy, h Host, est *obs.Estimator, trees bool) *Worker {
	t := s.proto
	if s.first != nil {
		t = s.NewTerrace()
	}
	w := &Worker{t: t, eng: NewEngine(t), policy: p, host: h, est: est, base: t.Depth()}
	if s.first == nil {
		s.first, s.proto = w, nil
	}
	w.eng.Heuristic = s.Heuristic
	if s.order != nil {
		w.eng.DynamicOrder, w.eng.Order = false, s.order
	}
	w.eng.OnFramePushed, w.eng.flush = w.offer, &w.policy
	if trees {
		w.eng.OnTrees = h.Trees
	}
	if est != nil {
		w.eng.OnLeaf = func(mass float64, n int64) { w.mass += mass; w.leaves += n }
	}
	return w
}

// offer is the hand-off rule: what the policy shares of a fresh frame is
// offered to the host with the path it hangs off.
func (w *Worker) offer(f *Frame) int {
	n := w.policy.Submit(w.eng.RemainingTaxa(), len(f.Branches))
	if n == 0 {
		return 0
	}
	w.path = w.eng.Path(append(w.path[:0], w.task.Path...))
	return w.host.Offer(w.path, f, n)
}

// Begin makes t the idle worker's task, aliasing its storage read-only
// until a Tick reports Idle. A corrupt frame stack is refused with the
// worker still idle and the Terrace untouched.
func (w *Worker) Begin(t FrontierTask) error {
	if w.phase != Idle {
		panic("search: Begin on a worker that has a task")
	}
	if err := w.eng.Reset(t.Frames); err != nil {
		return err
	}
	w.task, w.phase, w.pos = t, Replay, 0
	w.Fault.MaybePanic(faultinject.TaskExec)
	return nil
}

// Tick advances the task by one replayed path step, one engine step or one
// rewound step — the body of the pool's loop — and reports the phase and
// what the paper's machine would have paid for it in transitions (the
// simulator's clock ticks): one, 2m for an engine step that consumed a final
// frame of m, or what a booked subtree taken whole costs (Work.Units). When
// the phase has nothing left it enters the next instead, at no cost, and
// reports that one and 0; Idle means the task is finished. budget is the
// host's: how many units it lets one engine step take before the next point
// at which it looks — a check, a poll — and a step takes a subtree whole only
// within it, only where the worker's counter batch would not fill inside it,
// and only where the policy offers nothing below a third-to-last taxon
// (MinRemaining >= 3); budget <= 1 means one branch a step. The counter batch is flushed when the
// policy says it is full and when the frames are exhausted: a worker about
// to wait must not sit on unpublished counts.
func (w *Worker) Tick(budget int64) (Phase, int64) {
	var cost int64
	switch w.phase {
	case Replay:
		if w.pos < len(w.task.Path) {
			st := w.task.Path[w.pos]
			w.pos++
			w.t.ExtendTaxon(st.Taxon, st.Edge)
			cost = 1
		} else {
			w.eng.replayInserted()
			w.phase = Explore
		}
	case Explore:
		if w.Fault != nil {
			w.Fault.MaybePanic(faultinject.EngineStep)
		}
		w.eng.budget = 0
		if w.policy.MinRemaining >= 3 {
			// The policy offers nothing below a third-to-last taxon: its
			// booked subtrees may be taken whole within the budget.
			w.eng.budget = budget
		}
		before := w.eng.work.Units
		if w.eng.Step() != EvDone {
			if w.policy.FlushDue(w.eng.counters) {
				w.Flush()
			}
			cost = w.eng.work.Units - before
		} else {
			w.Flush()
			w.phase = Rewind
		}
	case Rewind:
		if w.t.Depth() > w.base {
			w.t.RemoveTaxon()
			cost = 1
		} else {
			w.task, w.phase = FrontierTask{}, Idle
		}
	}
	return w.phase, cost
}

// Flush publishes the unflushed batch, if any: the trees, then the counters
// that count them. Drivers call it before a Snapshot and when they stop
// ticking a task half-way.
func (w *Worker) Flush() {
	w.eng.FlushTrees()
	c := w.eng.counters
	if c == (Counters{}) {
		return
	}
	w.est.AddLeafMass(w.mass, w.leaves)
	w.est.AddCounters(c.StandTrees, c.IntermediateStates, c.DeadEnds)
	w.eng.counters, w.mass, w.leaves = Counters{}, 0, 0
	w.host.Publish(c)
}

// Snapshot returns what is left of the current task, sharing no storage with
// it: the whole task while its path is being replayed, the engine's stack
// under the same path while exploring, no frames otherwise. Call it between
// Ticks, after a Flush, so that counters and snapshot describe one cut.
func (w *Worker) Snapshot() FrontierTask {
	switch w.phase {
	case Replay:
		return w.task.Clone()
	case Explore:
		return FrontierTask{
			Path:   append([]PathStep(nil), w.task.Path...),
			Frames: w.eng.SnapshotFrames(nil),
		}
	}
	return FrontierTask{}
}

// Drop abandons what is left of the current task: the Terrace is rewound to
// I_0 and the worker is idle, ready to Begin any task — the one a Snapshot
// taken just before describes included.
func (w *Worker) Drop() {
	for w.t.Depth() > w.base {
		w.t.RemoveTaxon()
	}
	w.task, w.phase = FrontierTask{}, Idle
}

// Work is what the worker's engine did since the worker was made; path
// replays and rewinds are not the engine's.
func (w *Worker) Work() Work { return w.eng.Work() }
