// Package simsched is a deterministic virtual-time simulator of the paper's
// thread-pool parallelization. It ticks the *same* search.Worker — engine,
// hand-off and counter batching — as package parallel, but with N virtual
// workers advanced in lockstep by a discrete scheduler: each state transition
// (taxon insertion or removal), each path-replay step and each dequeue
// costs one tick of virtual time; busy-waiting costs wall ticks but no work.
// The transitions are the paper machine's: the engine counts the last
// taxon's frame without inserting it, and the simulator charges the
// insertions and removals that saves (Worker.Tick reports them).
//
// The host this reproduction runs on has two cores (every end-to-end pair in
// EXPERIMENTS.md runs at GOMAXPROCS 2), so real goroutine speedups beyond 2x
// are physically impossible where the paper uses up to 16 threads; but the
// paper's observed phenomena — linear speedups, plateaus from unbalanced
// workflow trees, super-linear speedups through the stopping rules, adapted
// speedups — are consequences of the branch-and-bound workload shape
// interacting with the scheduling policy, which the simulator reproduces
// exactly. Speedup(N) is measured as makespan(1 worker) / makespan(N workers)
// in ticks.
//
// The simulator also models global-counter contention for the paper's
// counter-batching ablation (Sec. III-B): every flush of local counters into
// the shared totals stalls the flushing worker for FlushCost ticks, so
// unbatched updates (batch size 1) pay the cost on every transition.
package simsched

import (
	"context"
	"fmt"

	"gentrius/internal/obs"
	"gentrius/internal/search"
	"gentrius/internal/tree"
)

// Limits are the stopping rules in virtual units: rule 3's wall-clock bound
// becomes a tick bound. Zero MaxTrees/MaxStates select the paper defaults;
// zero MaxTicks means unlimited; negative values mean unlimited.
type Limits struct {
	MaxTrees  int64
	MaxStates int64
	MaxTicks  int64
}

// counting returns the tree/state rules as the search.Limits the real
// engines test (the tick bound stays with the simulator's clock).
func (l Limits) counting() search.Limits {
	return search.Limits{MaxTrees: l.MaxTrees, MaxStates: l.MaxStates, MaxTime: -1}.Normalize()
}

// Options configures a simulated run.
type Options struct {
	Workers int
	Limits  Limits

	// InitialTree: constraint index, or negative for the paper's heuristic.
	InitialTree int

	// Policy overrides the scheme's constants — counter batch sizes (a
	// batch of 1 models unbatched updates), queue capacity, submission
	// depth restriction; zero fields select the paper's values. It is the
	// same search.Policy the real pool runs.
	Policy search.Policy

	// FlushCost is the virtual-time price of one global-counter flush
	// (atomic contention). Zero means free.
	FlushCost int64

	// SplitPolicy selects how many of a frame's admissible branches a task
	// submission hands off once Policy.Submit decides to submit (the paper
	// divides in half).
	SplitPolicy SplitPolicy

	// Heuristic refines the dynamic taxon selection used by every worker
	// (zero value: the paper's min-branches rule).
	Heuristic search.OrderHeuristic

	CollectTrees bool

	// TraceEvery > 0 samples each worker's mode every TraceEvery ticks into
	// Result.Timeline — a textual Gantt chart of the pool (the paper's
	// Figure 3 load-imbalance picture). Zero disables tracing.
	TraceEvery int64

	// Trace, if non-nil, receives scheduler events (task-submit, steal,
	// flush, stop, worker-start, and the task-begin/task-end lineage spans)
	// stamped with virtual time. The simulator is single-threaded and
	// advances workers in id order, so repeated runs on the same input
	// produce byte-identical traces.
	Trace *obs.Recorder

	// Estimator, if non-nil, accumulates the weighted backtrack
	// fraction-complete measure, merged on counter flushes. Deterministic
	// scheduling makes the fraction-over-ticks curve reproducible, which is
	// what the convergence tests assert.
	Estimator *obs.Estimator

	// Ctx cancels the simulation. It is polled every 1024 virtual ticks
	// (mirroring the real engines' periodic stopping-rule checks), after
	// which the run stops with reason StopCancelled. Uncancelled runs stay
	// deterministic: the poll reads no clocks and emits no events.
	Ctx context.Context

	// Resume seeds the simulation from a checkpoint's task frontier instead
	// of the initial split — the same snapshot form package parallel
	// produces and consumes, so virtual-time tests can pin the determinism
	// of snapshot/resume cuts. Any Workers count may consume any snapshot.
	// InitialTree and Heuristic are taken from the checkpoint.
	Resume *search.Checkpoint

	// CheckpointOnStop captures the outstanding task frontier into
	// Result.Checkpoint when the run stops on a limit or cancellation
	// (nil when the stand was exhausted or the run failed).
	CheckpointOnStop bool
}

// SplitPolicy is the task-granularity design choice (DESIGN.md ablations).
type SplitPolicy int8

// Split policies.
const (
	SplitHalf      SplitPolicy = iota // the paper's choice: floor(n/2)
	SplitOne                          // submit a single branch per task
	SplitAllButOne                    // submit everything except one branch
)

func (p SplitPolicy) String() string {
	switch p {
	case SplitOne:
		return "one"
	case SplitAllButOne:
		return "all-but-one"
	default:
		return "half"
	}
}

// WorkerStats describes one virtual worker's activity.
type WorkerStats struct {
	search.Counters
	Busy   int64 // ticks spent on insertions/removals/replay/flush stalls
	Idle   int64 // ticks spent busy-waiting for tasks
	Replay int64 // subset of Busy spent replaying paths and rewinding
	Tasks  int64 // tasks executed (including the initial-split share)
}

// Result of a simulated run.
type Result struct {
	search.Counters
	Stop         search.StopReason
	Ticks        int64 // makespan in virtual time
	PrefixLen    int
	TasksStolen  int64
	Flushes      int64
	Trees        []string
	PerWorker    []WorkerStats
	InitialIndex int
	// Timeline holds one row per worker when Options.TraceEvery was set:
	// 'W' working, 'R' replaying/rewinding, 'F' stalled on a counter flush,
	// '.' idle (busy-waiting).
	Timeline []string
	// Checkpoint holds the frontier snapshot when Options.CheckpointOnStop
	// was set and a stopping rule or cancellation ended the run.
	Checkpoint *search.Checkpoint
}

// RenderTimeline formats the timeline rows for display.
func (r *Result) RenderTimeline() string {
	if len(r.Timeline) == 0 {
		return ""
	}
	var b []byte
	for w, row := range r.Timeline {
		b = append(b, fmt.Sprintf("w%02d ", w)...)
		b = append(b, row...)
		b = append(b, '\n')
	}
	return string(b)
}

// Efficiency returns the fraction of wall ticks the workers spent busy.
func (r *Result) Efficiency() float64 {
	if r.Ticks == 0 || len(r.PerWorker) == 0 {
		return 1
	}
	busy := int64(0)
	for _, w := range r.PerWorker {
		busy += w.Busy
	}
	return float64(busy) / float64(r.Ticks*int64(len(r.PerWorker)))
}

// task is a unit of stealable work — the same search.FrontierTask form the
// real pool queues and checkpoints — plus its lineage for span tracing.
type task struct {
	search.FrontierTask
	id     int64 // run-unique lineage id (initial shares take 1..Workers)
	parent int64 // id of the task whose execution submitted this one
}

// vworker is one virtual worker: a search.Worker — the protocol the pool's
// goroutines run — and the search.Host it reports to, plus the clock-side
// bookkeeping.
type vworker struct {
	id    int
	s     *sim
	wk    *search.Worker
	phase search.Phase // wk's, after this worker's last tick
	cur   task         // lineage of the task being executed (id 0: none)

	stats WorkerStats
	owed  int64 // ticks the last engine step still costs (a final frame)
	stall int64 // remaining flush-stall ticks
	trace []byte
}

type sim struct {
	opt      Options
	limits   search.Limits
	g        search.Counters // flushed global counters
	stop     bool
	reason   search.StopReason
	err      error // a task a worker refused to begin: the run's failure
	queue    []task
	stolen   int64
	flushes  int64
	tick     int64
	nextTask int64                     // task-id sequence, continued past the initial shares
	sink     func(block []byte, n int) // into Result.Trees; nil when nobody wants them
	workers  []*vworker
}

// Run simulates a parallel Gentrius execution and returns virtual-time
// metrics. Workers <= 1 simulates the serial execution through the same
// machinery (one worker, no stealing partners).
func Run(constraints []*tree.Tree, opt Options) (*Result, error) {
	if opt.Workers <= 0 {
		opt.Workers = 1
	}
	opt.Policy = opt.Policy.Normalize(opt.Workers)

	su, err := search.Start(constraints, opt.InitialTree, opt.Heuristic, nil, opt.Resume, opt.Workers)
	if err != nil {
		return nil, err
	}
	// The virtual workers run on this goroutine: at any return they are done.
	defer su.Release()
	prefixLen := int64(len(su.Frontier.Prefix))
	res := &Result{
		Stop:         search.StopExhausted,
		InitialIndex: su.InitialIndex,
		PrefixLen:    int(prefixLen),
		Counters:     su.Counters,
		Ticks:        prefixLen, // every worker replays the prefix concurrently
	}
	opt.Estimator.AddCounters(su.Counters.StandTrees,
		su.Counters.IntermediateStates, su.Counters.DeadEnds)
	opt.Estimator.AddLeafMass(su.LeafMass, su.Leaves)
	sink := search.TreeSink[[]byte](opt.CollectTrees, &res.Trees, nil, nil)
	tasks := su.Frontier.Tasks
	if len(tasks) == 0 {
		// Nothing to run: an empty stand, a prefix that closed the whole
		// space (at most one tree), or a snapshot of a finished run.
		if sink != nil && su.Tree != "" {
			sink(append([]byte(su.Tree), '\n'), 1)
		}
		return res, nil
	}

	s := &sim{opt: opt, limits: opt.Limits.counting(), g: su.Counters,
		tick: prefixLen, nextTask: int64(opt.Workers), sink: sink}
	for w := 0; w < opt.Workers; w++ {
		vw := &vworker{id: w, s: s}
		vw.wk = su.NewWorker(opt.Policy, vw, opt.Estimator, s.sink != nil)
		vw.stats.Busy = prefixLen
		vw.stats.Replay = prefixLen
		s.workers = append(s.workers, vw)
		// A fresh run hands share w to worker w directly as task w+1 (a
		// reserved lineage root, parent 0): no steal, no dequeue tick. A
		// share hangs off I_0 itself, so the step replays nothing: it is the
		// free turn from replaying to exploring.
		share := !su.Resumed && w < len(tasks)
		nShare := 0
		if share {
			nShare = len(tasks[w].Frames[0].Branches)
		}
		opt.Trace.EmitAt(s.tick, obs.EvWorkerStart, w, obs.F("branches", int64(nShare)))
		if share {
			s.begin(vw, task{FrontierTask: tasks[w], id: int64(w) + 1})
			s.step(vw)
		}
	}
	if su.Resumed {
		// All workers start idle; the frontier tasks go straight into the
		// queue and are stolen in deterministic order.
		for _, ft := range tasks {
			s.nextTask++
			s.queue = append(s.queue, task{FrontierTask: ft, id: s.nextTask})
		}
	}

	// Main loop: one tick advances every worker by one transition.
	for !s.stop {
		allIdle := true
		trace := opt.TraceEvery > 0 && s.tick%opt.TraceEvery == 0
		for _, w := range s.workers {
			s.advance(w)
			if w.phase != search.Idle {
				allIdle = false
			}
			if trace {
				w.trace = append(w.trace, w.modeChar())
			}
		}
		s.tick++
		if allIdle && len(s.queue) == 0 {
			break
		}
		if opt.Limits.MaxTicks > 0 && s.tick >= opt.Limits.MaxTicks {
			s.halt(search.StopTimeLimit, -1)
		}
		if opt.Ctx != nil && s.tick&1023 == 0 && opt.Ctx.Err() != nil {
			s.halt(search.StopCancelled, -1)
		}
	}

	if s.err != nil {
		return nil, s.err
	}
	// Final flushes.
	for _, w := range s.workers {
		w.wk.Flush()
	}
	res.Counters = s.g
	res.Ticks = s.tick
	res.TasksStolen = s.stolen
	res.Flushes = s.flushes
	if s.stop {
		res.Stop = s.reason
	}
	for _, w := range s.workers {
		res.PerWorker = append(res.PerWorker, w.stats)
		if opt.TraceEvery > 0 {
			res.Timeline = append(res.Timeline, string(w.trace))
		}
	}
	if opt.CheckpointOnStop && res.Stop != search.StopExhausted && res.Stop != search.StopFailed {
		res.Checkpoint = su.Checkpoint(res.Counters, opt.Workers, s.frontier())
	}
	return res, nil
}

// frontier collects every outstanding unit of work after the simulation
// halted: what is left of each worker's task, then the queue remnant. The
// simulator is single-threaded, so unlike the real pool no quiesce protocol
// is needed — the cut is consistent by construction.
func (s *sim) frontier() []search.FrontierTask {
	var tasks []search.FrontierTask
	for _, w := range s.workers {
		if ft := w.wk.Snapshot(); len(ft.Frames) > 0 {
			tasks = append(tasks, ft)
		}
	}
	for i := range s.queue {
		tasks = append(tasks, s.queue[i].FrontierTask)
	}
	return tasks
}

// modeChar maps the worker's instantaneous state to its timeline symbol.
func (w *vworker) modeChar() byte {
	if w.owed == 0 && w.stall > 0 {
		return 'F'
	}
	return ".RWR"[w.phase] // search.Idle, Replay, Explore, Rewind
}

// begin makes tk the worker's task. A task the worker refuses fails the run.
func (s *sim) begin(w *vworker, tk task) {
	if err := w.wk.Begin(tk.FrontierTask); err != nil {
		s.err, s.stop, s.reason = err, true, search.StopFailed
		return
	}
	w.cur, w.phase = tk, search.Replay
}

// step ticks the worker once, stamps the lineage event of a phase it turned
// into, and reports whether the tick did work. The engine takes a final frame
// of m branches in one step where the paper's machine takes 2m transitions:
// the other 2m-1 are owed to the clock.
func (s *sim) step(w *vworker) bool {
	var cost int64
	if w.phase, cost = w.wk.Tick(); cost > 0 {
		w.owed += cost - 1
		return true
	}
	switch {
	case w.phase == search.Explore:
		w.stats.Tasks++
		root := &w.cur.Frames[0]
		s.opt.Trace.EmitAt(s.tick, obs.EvTaskStart, w.id,
			obs.F("task", w.cur.id), obs.F("parent", w.cur.parent),
			obs.F("taxon", int64(root.Taxon)),
			obs.F("branches", int64(len(root.Branches))))
	case w.phase == search.Idle && w.cur.id != 0:
		s.opt.Trace.EmitAt(s.tick, obs.EvTaskEnd, w.id, obs.F("task", w.cur.id))
		w.cur = task{}
	}
	return false
}

// advance executes one virtual tick for worker w: a flush stall, one unit of
// its task — turning from one phase into the next is free — or, idle, the
// dequeue of the next task.
func (s *sim) advance(w *vworker) {
	for {
		if w.owed > 0 {
			w.owed--
			w.stats.Busy++
			return
		}
		if w.stall > 0 {
			w.stall--
			w.stats.Busy++
			return
		}
		if s.step(w) {
			w.stats.Busy++
			if w.phase != search.Explore {
				w.stats.Replay++
			}
			return
		}
		if w.phase != search.Idle {
			continue
		}
		if len(s.queue) == 0 {
			w.stats.Idle++
			return
		}
		tk := s.queue[0]
		s.queue[0] = task{} // do not retain the popped task's slices
		s.queue = s.queue[1:]
		s.stolen++
		s.opt.Trace.EmitAt(s.tick, obs.EvSteal, w.id,
			obs.F("task", tk.id),
			obs.F("taxon", int64(tk.Frames[0].Taxon)),
			obs.F("branches", int64(len(tk.Frames[0].Branches))),
			obs.F("path", int64(len(tk.Path))))
		s.begin(w, tk)
		w.stats.Busy++ // the dequeue tick
		return
	}
}

// Offer queues the tail of f as a task when the queue has room, the policy's
// half adjusted by the split-policy ablation.
func (w *vworker) Offer(path []search.PathStep, f *search.Frame, n int) int {
	s := w.s
	if len(s.queue) >= s.opt.Policy.QueueCap {
		return 0
	}
	switch s.opt.SplitPolicy {
	case SplitOne:
		n = 1
	case SplitAllButOne:
		n = len(f.Branches) - 1
	}
	s.nextTask++
	s.queue = append(s.queue, task{
		FrontierTask: search.NewSeedTask(path, f.Taxon,
			f.Branches[len(f.Branches)-n:], f.BranchWeight()),
		id:     s.nextTask,
		parent: w.cur.id,
	})
	s.opt.Trace.EmitAt(s.tick, obs.EvTaskSubmit, w.id,
		obs.F("task", s.nextTask), obs.F("parent", w.cur.id),
		obs.F("taxon", int64(f.Taxon)), obs.F("branches", int64(n)),
		obs.F("path", int64(len(path))))
	return n
}

// Publish moves a counter batch into the global totals, charges the
// contention cost and re-evaluates the stopping rules.
func (w *vworker) Publish(c search.Counters) {
	s := w.s
	s.opt.Trace.EmitAt(s.tick, obs.EvFlush, w.id,
		obs.F("trees", c.StandTrees),
		obs.F("states", c.IntermediateStates),
		obs.F("dead", c.DeadEnds))
	s.g.Add(c)
	w.stats.Counters.Add(c)
	s.flushes++
	// The paper's machine counts a final frame tree by tree, and the state
	// above it before that, where a look-ahead step publishes both at once: it
	// would have filled its tree batch and its state batch, and paid for a
	// flush, this many times on the way.
	w.stall += s.opt.FlushCost * max(1, c.StandTrees/s.opt.Policy.TreeBatch+c.IntermediateStates/s.opt.Policy.StateBatch)
	if r, hit := s.limits.Exceeded(s.g, 0); hit {
		s.halt(r, w.id)
	}
}

// halt raises the stop flag, once, for reason r and stamps the stop event
// with the worker whose batch hit the limit (-1: the clock or the context).
func (s *sim) halt(r search.StopReason, w int) {
	if s.stop {
		return
	}
	s.stop, s.reason = true, r
	s.opt.Trace.EmitAt(s.tick, obs.EvStop, w,
		obs.F("reason", int64(r)),
		obs.F("trees", s.g.StandTrees),
		obs.F("states", s.g.IntermediateStates))
}

// Trees hands a block of stand trees to the run's sink.
func (w *vworker) Trees(block []byte, n int) []byte {
	w.s.sink(block, n)
	return block
}
