// The paper's scheduler (Sec. III-A/B), written once and run by two hosts:
// Run ticks its workers on goroutines against the wall clock, Simulate ticks
// them in lockstep on a virtual one. Everything the workers of one run share
// is here — the bounded task queue and its lineage ids, the offers into it,
// the totals each published batch adds to and the stopping rules it
// re-evaluates, the one-shot stop, the cut of the outstanding work and the
// start rule — together with the scheduler's trace events. A host adds only
// how its workers wait, when they start and what a step costs.
package parallel

import (
	"sync"
	"sync/atomic"
	"time"

	"gentrius/internal/obs"
	"gentrius/internal/search"
)

// task is a unit of stealable work (paper Sec. III-A) with its lineage.
// The work itself is a search.FrontierTask — the path from I_0 plus a frame
// stack: one uninserted frame for a submitted or initial task, a deeper
// stack for a resumed in-flight one — self-contained and never mutated by
// execution.
//
// id and parent carry the task lineage for span tracing: id is run-unique
// (what a run starts with counts from 1, submissions continue the sequence)
// and parent is the id of the task whose execution submitted this one (0:
// none), so steal chains are reconstructible from the trace alone.
type task struct {
	search.FrontierTask
	id     int64
	parent int64
	// branches is the recycled storage behind a submitted task's single
	// frame. (A resumed task's frames alias the checkpoint's branch arrays
	// instead, which are never written.)
	branches []int32
}

// root is the task's bottom frame: the split taxon and branch share every
// task event reports.
func (tk *task) root() *search.FrameSnapshot { return &tk.Frames[0] }

// taskPool recycles task objects together with their path and branch
// buffers: a task submission in steady state reuses the storage of a
// previously completed (or rejected) task instead of allocating. Tasks are
// returned to the pool only after the stealing worker has finished the
// replay and rewind, so no live slice is ever handed out twice.
var taskPool = sync.Pool{New: func() any { return new(task) }}

// recycleTask resets tk (keeping slice capacity) and returns it to the pool.
func recycleTask(tk *task) {
	tk.Path = tk.Path[:0]
	tk.Frames = tk.Frames[:0]
	tk.id, tk.parent = 0, 0
	taskPool.Put(tk)
}

// sched is the scheduler of one run. Its queue state is guarded by mu; the
// totals, the halt flag and the stop reason are atomics, so publishing a
// batch takes no lock.
type sched struct {
	su      *search.Setup
	policy  search.Policy
	limits  search.Limits
	started time.Time
	m       *obs.SchedMetrics // never nil (a no-op set when metrics are off)
	rec     *obs.Recorder     // nil when tracing is off
	clock   obs.Clock         // the virtual host's; nil: rec stamps the events
	est     *obs.Estimator    // nil when estimation is off

	mu sync.Mutex
	// The goroutine host's workers wait on cond — for a task, the end of a
	// round, or done — and its rounds on ctl, for every worker idle or one no
	// longer; an offer and the stop signal them. The virtual host never waits.
	cond, ctl sync.Cond
	tasks     []*task
	// full says whether tasks holds QueueCap tasks, stored wherever tasks
	// changes (queued), for an offer to read before it builds a path.
	full atomic.Bool
	// handed is what interrupted workers left of their tasks: part of every
	// cut, after the queue.
	handed   []search.FrontierTask
	nextTask int64 // the last lineage id handed out
	done     bool  // stopped, or (goroutine host) drained: nothing more is queued
	stolen   int64
	failErr  error // the first fatal error

	trees, states, dead, flushes atomic.Int64
	// perWorker is each worker's published share, one entry per configured
	// worker, started or not; only worker w writes entry w.
	perWorker []search.Counters
	// halt is the one word a goroutine worker polls per engine step: set for
	// good by raise, for the length of a checkpoint round by round.
	halt atomic.Bool
	// reason is why raise stopped the run; zero (StopExhausted), it has not.
	reason atomic.Int32
}

// start applies the one start rule: what Start counted seeds the totals and
// the estimator, and what there is to do — the initial split's shares or a
// resumed frontier — is queued as the run's own tasks, ids from 1, submitted
// by worker -1, for the workers to steal. With nothing to do — an empty
// stand, a prefix that closed the whole space (at most one tree, handed to
// sink if there is one), or a snapshot of a finished run — it reports false.
func (s *sched) start(workers int, sink func(block []byte, n int)) bool {
	s.cond.L, s.ctl.L = &s.mu, &s.mu
	su := s.su
	s.add(su.Counters)
	s.est.AddCounters(su.Counters.StandTrees, su.Counters.IntermediateStates, su.Counters.DeadEnds)
	s.est.AddLeafMass(su.LeafMass, su.Leaves)
	if len(su.Frontier.Tasks) == 0 {
		if sink != nil {
			if nw := su.Tree(); nw != "" {
				sink(append([]byte(nw), '\n'), 1)
			}
		}
		return false
	}
	s.perWorker = make([]search.Counters, workers)
	for _, ft := range su.Frontier.Tasks {
		s.enqueue(ft)
	}
	return true
}

// emit records a scheduler event, stamped with the host's clock.
func (s *sched) emit(ev string, w int, f ...obs.Field) {
	if s.clock != nil {
		s.rec.EmitAt(s.clock(), ev, w, f...)
	} else {
		s.rec.Emit(ev, w, f...)
	}
}

// push queues t under the next lineage id, submitted by worker by (-1: the
// run itself), and says so in the trace — under mu, so that no steal of t is
// traced before it.
func (s *sched) push(t *task, by int) {
	s.nextTask++
	t.id = s.nextTask
	s.tasks = append(s.tasks, t)
	s.queued()
	if s.rec != nil {
		s.emit(obs.EvTaskSubmit, by, obs.F("task", t.id), obs.F("parent", t.parent),
			obs.F("taxon", int64(t.root().Taxon)), obs.F("branches", int64(len(t.root().Branches))),
			obs.F("path", int64(len(t.Path))))
	}
}

// enqueue queues work the run already owns — its shares or resumed frontier
// at start, a round's hand-ins — copied into recycled storage (the branch
// arrays stay ft's), whatever the capacity. Under mu, or before the workers
// start.
func (s *sched) enqueue(ft search.FrontierTask) {
	tk := taskPool.Get().(*task)
	tk.Path = append(tk.Path[:0], ft.Path...)
	tk.Frames = append(tk.Frames[:0], ft.Frames...)
	s.push(tk, -1)
}

// queued publishes the queue's length after a change to it: to the metrics,
// and to full. Under mu, or before the workers start.
func (s *sched) queued() {
	s.m.QueueDepth.Set(int64(len(s.tasks)))
	s.full.Store(len(s.tasks) >= s.policy.QueueCap)
}

// pop dequeues the head task for worker w — a steal — or returns nil when the
// queue is empty. Under mu.
func (s *sched) pop(w int) *task {
	if len(s.tasks) == 0 {
		return nil
	}
	t := s.tasks[0]
	// Close the gap in place — the queue is a few tasks long — so that the
	// backing array is allocated once per run, and zero the vacated slot: the
	// popped task returns to the pool after execution.
	n := copy(s.tasks, s.tasks[1:])
	s.tasks[n] = nil
	s.tasks = s.tasks[:n]
	s.queued()
	s.stolen++
	s.m.TasksStolen.Inc()
	s.m.Worker(w).Stolen.Inc()
	if s.rec != nil {
		s.emit(obs.EvSteal, w, obs.F("task", t.id),
			obs.F("taxon", int64(t.root().Taxon)), obs.F("branches", int64(len(t.root().Branches))),
			obs.F("path", int64(len(t.Path))))
	}
	return t
}

// handIn takes what an interrupted worker left of its task, if anything.
func (s *sched) handIn(ft search.FrontierTask) {
	if len(ft.Frames) > 0 {
		s.mu.Lock()
		s.handed = append(s.handed, ft)
		s.mu.Unlock()
	}
}

// cut is the outstanding work of a run in which no worker is executing (held
// under mu, or drained): the queue's tasks, then the hand-ins.
func (s *sched) cut() []search.FrontierTask {
	tasks := make([]search.FrontierTask, 0, len(s.tasks)+len(s.handed))
	for _, tk := range s.tasks {
		tasks = append(tasks, tk.Clone())
	}
	return append(tasks, s.handed...)
}

// checkpointOnStop is the frontier of a drained run that a stopping rule or
// cancellation ended — the queue's remnant plus what the workers handed in
// as they hit the stop are exactly the outstanding work — and nil when the
// stand was exhausted or the run failed: there is nothing to resume.
func (s *sched) checkpointOnStop(width int) *search.Checkpoint {
	if r := search.StopReason(s.reason.Load()); r == search.StopExhausted || r == search.StopFailed {
		return nil
	}
	return s.su.Checkpoint(s.totals(), width, s.cut())
}

// add accounts a batch of counters in the totals and their metrics.
func (s *sched) add(c search.Counters) {
	s.trees.Add(c.StandTrees)
	s.states.Add(c.IntermediateStates)
	s.dead.Add(c.DeadEnds)
	s.m.Trees.Add(c.StandTrees)
	s.m.States.Add(c.IntermediateStates)
	s.m.DeadEnds.Add(c.DeadEnds)
}

func (s *sched) totals() search.Counters {
	return search.Counters{
		StandTrees:         s.trees.Load(),
		IntermediateStates: s.states.Load(),
		DeadEnds:           s.dead.Load(),
	}
}

// checkLimits evaluates the stopping rules against the totals. It reads the
// clock only under a time limit, which the virtual-time host never has.
func (s *sched) checkLimits() {
	var elapsed time.Duration
	if s.limits.MaxTime > 0 {
		elapsed = time.Since(s.started)
	}
	if r, hit := s.limits.Exceeded(s.totals(), elapsed); hit {
		s.raise(r)
	}
}

// raise stops the run, once: the halt flag interrupts the executing workers,
// the queue takes no more offers and the waiting workers are released.
func (s *sched) raise(r search.StopReason) {
	if s.reason.CompareAndSwap(0, int32(r)) {
		s.halt.Store(true)
		c := s.totals()
		s.emit(obs.EvStop, -1, obs.F("reason", int64(r)),
			obs.F("trees", c.StandTrees), obs.F("states", c.IntermediateStates))
		s.mu.Lock()
		s.done = true
		s.mu.Unlock()
		s.cond.Broadcast()
		s.ctl.Signal()
	}
}

// fail records the run's fatal error (the first one wins) and stops it with
// StopFailed.
func (s *sched) fail(err error) {
	s.mu.Lock()
	if s.failErr == nil {
		s.failErr = err
	}
	s.mu.Unlock()
	s.raise(search.StopFailed)
}

// worker is the scheduler's side of one worker, whichever host ticks it: a
// search.Worker — the per-thread protocol, Terrace and engine included — and
// the Offer and Publish of the search.Host it reports to. Each host adds
// Trees and its own bookkeeping.
type worker struct {
	s   *sched
	id  int
	wk  *search.Worker
	cur *task // the task being executed (nil: none): its id is the parent of its submissions
}

// Offer queues the last n branches of f, hanging off path, as a task in
// recycled storage if the queue has room, waking one idle worker.
func (w *worker) Offer(path []search.PathStep, f *search.Frame, n int) int {
	s := w.s
	s.mu.Lock()
	if s.done || len(s.tasks) >= s.policy.QueueCap {
		s.mu.Unlock()
		return 0
	}
	tk := taskPool.Get().(*task)
	tk.Path = append(tk.Path[:0], path...)
	tk.branches = append(tk.branches[:0], f.Branches[len(f.Branches)-n:]...)
	tk.Frames = append(tk.Frames[:0], search.FrameSnapshot{
		Taxon: f.Taxon, Branches: tk.branches, Weight: f.BranchWeight()})
	tk.parent = w.cur.id
	s.push(tk, w.id)
	s.mu.Unlock()
	s.cond.Signal()
	return n
}

// Full reports whether the queue holds QueueCap tasks: one atomic load, so
// that a worker builds no path for an offer Offer would refuse. Offer itself
// decides under mu.
func (w *worker) Full() bool { return w.s.full.Load() }

// Publish adds a counter batch to the totals and re-evaluates the stopping
// rules.
func (w *worker) Publish(c search.Counters) {
	s := w.s
	s.add(c)
	s.flushes.Add(1)
	wm := s.m.Worker(w.id)
	wm.Trees.Add(c.StandTrees)
	wm.States.Add(c.IntermediateStates)
	wm.DeadEnds.Add(c.DeadEnds)
	s.emit(obs.EvFlush, w.id,
		obs.F("trees", c.StandTrees),
		obs.F("states", c.IntermediateStates),
		obs.F("dead", c.DeadEnds))
	s.perWorker[w.id].Add(c)
	s.checkLimits()
}

// begin makes tk the idle worker's task. A task the worker refuses fails the
// run, and begin reports false.
func (w *worker) begin(tk *task) bool {
	w.cur = tk
	w.s.emit(obs.EvTaskStart, w.id, obs.F("task", tk.id), obs.F("parent", tk.parent),
		obs.F("taxon", int64(tk.root().Taxon)), obs.F("branches", int64(len(tk.root().Branches))),
		obs.F("path", int64(len(tk.Path))))
	if err := w.wk.Begin(tk.FrontierTask); err != nil {
		w.cur = nil
		recycleTask(tk)
		w.s.fail(err)
		return false
	}
	return true
}

// end closes the worker's task, run to its end or interrupted — by a stop or
// by a round, the worker does not care which: it publishes its batch, hands
// in what is left of the task (nothing, when it ran to its end) and is idle
// at I_0 again.
func (w *worker) end() {
	w.wk.Flush()
	w.s.handIn(w.wk.Snapshot())
	w.wk.Drop()
	w.s.emit(obs.EvTaskEnd, w.id, obs.F("task", w.cur.id))
	recycleTask(w.cur)
	w.cur = nil
}
