// Package parallel implements the paper's shared-memory parallel Gentrius:
// a pool of workers (goroutines standing in for OpenMP threads), each with a
// fully private copy of the search state, cooperating through a bounded task
// queue guarded by a mutex and condition variable (the Go equivalents of the
// paper's OpenMP locks and std::condition_variable).
//
// The scheme itself is stated once in package search, shared with the
// virtual-time simulator and the fleet coordinator: the run set-up (Start),
// the task form (FrontierTask), the constants and decisions (Policy) and the
// per-thread protocol (Worker: private Terrace at I_0, replay a task's path,
// explore, offer half of a fresh frame, batch the counters, rewind). This
// package adds a goroutine per Worker, the queue the offers go through and
// idle workers steal from, checkpoint rounds, panic recovery and the tree
// stream. The global stand-tree / intermediate-state / dead-end counters are
// shared atomics, updated once per published batch; each batch re-evaluates
// the stopping rules and, when one fires, raises the halt flag that all
// workers poll — so, like the paper's implementation, the limits can be
// overshot slightly.
package parallel

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"gentrius/internal/faultinject"
	"gentrius/internal/obs"
	"gentrius/internal/search"
	"gentrius/internal/tree"
)

// DefaultMaxTaskRetries bounds how often one task may panic and be retried
// before the run fails with a WorkerPanicError.
const DefaultMaxTaskRetries = 3

// treeBlocks is how many blocks of stand trees may be on their way from the
// workers to the collector goroutine: the capacity of the channel they
// stream through and the length of the free list the collector returns
// their buffers to. With one block the workers wait on the collector at
// every hand-off (two-thread passes of the benchmark's streaming workloads
// take a quarter to a half longer), with two they still do now and then, and
// from four on nothing more is gained; four blocks of up to search.BlockSize
// are 128 KiB ahead of the sink — about 150 trees of a hundred taxa, where
// the per-tree channel this replaces held 256 — which is also what a
// checkpoint round or a stopped run waits for the sink to take.
const treeBlocks = 4

// Options configures a parallel run.
type Options struct {
	Threads int
	Limits  search.Limits

	// InitialTree: constraint index, or negative for the paper's heuristic.
	InitialTree int

	// CollectTrees gathers every stand tree's canonical Newick (merged
	// across workers, unordered).
	CollectTrees bool

	// OnTrees, if non-nil, receives the stand in blocks: n canonical Newick
	// strings, each newline-terminated, in bytes valid only during the call.
	// A worker renders into a block of its own and hands it on at
	// search.BlockSize and whenever it publishes its counters; blocks stream
	// through a bounded channel to one collector goroutine, so calls are
	// serialized but arrive in no particular order, concurrently with the
	// enumeration; a slow callback applies backpressure to the workers
	// rather than growing a buffer.
	OnTrees func(newicks []byte, n int)

	// OnTree, if non-nil, receives every stand tree of every block as a
	// string cut from one string per block, from the same collector goroutine.
	OnTree func(newick string)

	// Ctx cancels the run: when it is done, the halt flag all workers poll
	// is raised with reason StopCancelled and blocked stealers are woken,
	// so the pool drains within about one step per worker. The run returns
	// normally (counter conservation still holds); the context's error is
	// not propagated.
	Ctx context.Context

	// Policy overrides the scheme's constants — counter batch sizes, queue
	// capacity, submission depth restriction; zero fields select the
	// paper's values (see search.Policy).
	Policy search.Policy

	// Heuristic refines the dynamic taxon selection used by every worker
	// (zero value: the paper's min-branches rule).
	Heuristic search.OrderHeuristic

	// Obs attaches scheduler observability: metrics (the search counters,
	// queue depth, steals, panics recovered, per-worker counters) and/or a
	// JSONL event trace. Nil disables both; the disabled hot path costs one
	// predictable branch per instrument.
	Obs *obs.Sink

	// Fault attaches deterministic fault injection (nil: no faults). The
	// pool honours the TaskExec site (panic at the start of the Nth task
	// execution — exercised by the recovery path) and the EngineStep site
	// (panic at the Nth engine step — mid-task, so recovery escalates once
	// the attempt has published progress).
	Fault *faultinject.Injector

	// MaxTaskRetries bounds how many times a single task may panic and be
	// requeued before the run fails with a *WorkerPanicError. Zero selects
	// DefaultMaxTaskRetries; negative disables recovery (first panic is
	// fatal).
	MaxTaskRetries int

	// Checkpoint configures snapshots and resuming (see
	// search.CheckpointPolicy). Resume queues the checkpoint's frontier the
	// way a fresh run's shares are queued — any thread count resumes any
	// checkpoint. OnStop collects what the workers interrupted by the stop
	// handed in plus the queue's remnant into Result.Checkpoint. Interval and
	// Trigger each take a round (see round): the pool is stopped the same
	// way, cut, and resumed in place from its own hand-ins; Sink runs on
	// Run's goroutine, the workers already stealing again. The pool has no
	// per-check cadence to count: Every > 0 with no Interval means a
	// one-second Interval.
	Checkpoint search.CheckpointPolicy
}

// WorkerPanicError is the fatal outcome when a task's panic cannot be
// recovered: its retry budget is exhausted, or the panicking attempt had
// already published externally visible progress (a counter flush, a
// block of trees handed on, a submitted sub-task), so re-executing it would
// double-count. The run stops (reason StopFailed) and Run returns this
// error carrying the last panic value and its stack.
type WorkerPanicError struct {
	Worker   int    // worker that observed the final panic
	Value    any    // the panic value (a faultinject.Panic for injected faults)
	Stack    []byte // stack captured at the final recover
	Attempts int    // executions of the task, all panicked
	// Dirty marks a panic escalated because the attempt had already
	// published progress, making a verbatim retry unsound.
	Dirty bool
}

// OnTreePanicError is the fatal outcome of a panic in the caller's OnTree or
// OnTrees: what is left of the block it was handed is lost, so the run stops
// (reason StopFailed, no checkpoint) and Run returns this error with the
// panic value and its stack.
type OnTreePanicError struct {
	Value any
	Stack []byte
}

func (e *OnTreePanicError) Error() string {
	return fmt.Sprintf("parallel: OnTree panicked: %v", e.Value)
}

func (e *WorkerPanicError) Error() string {
	if e.Dirty {
		return fmt.Sprintf("parallel: task panicked on worker %d after publishing progress (attempt %d, not retryable): %v",
			e.Worker, e.Attempts, e.Value)
	}
	return fmt.Sprintf("parallel: task panicked in %d attempt(s), last on worker %d: %v",
		e.Attempts, e.Worker, e.Value)
}

// Result of a parallel run.
type Result struct {
	search.Counters
	Stop         search.StopReason
	Elapsed      time.Duration
	Trees        []string
	InitialIndex int
	PrefixLen    int
	TasksStolen  int64
	PerWorker    []search.Counters
	// Prefix is the coordinator's deterministic-prefix contribution — on a
	// resumed run, the checkpoint's counters — so Counters == Prefix +
	// sum(PerWorker) exactly (counter conservation).
	Prefix search.Counters
	// Flushes counts non-empty batched counter flushes across all workers.
	Flushes int64
	// Work is what the workers' engines did, summed: the prefix walk and the
	// path replays of stolen tasks are not in it.
	Work search.Work
	// Checkpoint holds the frontier snapshot when Options.Checkpoint.OnStop
	// was set and a stopping rule or cancellation ended the run (nil when
	// the stand was exhausted: there is nothing left to resume).
	Checkpoint *search.Checkpoint
}

// task is a unit of stealable work (paper Sec. III-A) with its lineage.
// The work itself is a search.FrontierTask — the path from I_0 plus a frame
// stack: one uninserted frame for a submitted or initial task, a deeper
// stack for a resumed in-flight one — self-contained and never mutated by
// execution, so a task that panicked on one worker can be re-executed on
// any other; retries counts those recovery attempts.
//
// id and parent carry the task lineage for span tracing: id is run-unique
// (what a run starts with counts from 1, submissions continue the sequence)
// and parent is the id of the task whose execution submitted this one (0:
// none), so steal chains are reconstructible from the trace alone.
type task struct {
	search.FrontierTask
	retries int
	id      int64
	parent  int64
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
	tk.retries = 0
	tk.id, tk.parent = 0, 0
	taskPool.Put(tk)
}

// queue is the bounded task queue plus the pool's termination accounting,
// which is all the state a checkpoint needs too: a worker not executing a
// task waits in steal, and what an interrupted one left of its task is in
// handed. m is never nil (a no-op metric set when observability is off).
type queue struct {
	mu    sync.Mutex
	cond  sync.Cond // workers wait: a task, the end of a round, or done
	ctl   sync.Cond // a round waits: every worker idle, or one no longer
	tasks []*task
	// handed is what interrupted workers left of their tasks: part of every
	// cut (see frontier), and queued again by a round after its own.
	handed  []search.FrontierTask
	cap     int
	idle    int
	workers int // started so far: one until worker 0 starts the rest (spawn)
	done    bool
	pausing bool // a round is on: steal holds every worker
	stolen  int64
	m       *obs.SchedMetrics
	rec     *obs.Recorder // nil when tracing is off
}

func newQueue(cap, workers int, m *obs.SchedMetrics) *queue {
	q := &queue{cap: cap, workers: workers, m: m}
	q.cond.L, q.ctl.L = &q.mu, &q.mu
	return q
}

// push queues t, submitted by worker by (-1: the pool itself), and says so in
// the trace — under q.mu, so that no steal of t is traced before it.
func (q *queue) push(t *task, by int) {
	q.tasks = append(q.tasks, t)
	q.m.QueueDepth.Set(int64(len(q.tasks)))
	if q.rec != nil {
		q.rec.Emit(obs.EvTaskSubmit, by, obs.F("task", t.id), obs.F("parent", t.parent),
			obs.F("taxon", int64(t.root().Taxon)), obs.F("branches", int64(len(t.root().Branches))),
			obs.F("path", int64(len(t.Path))))
	}
}

// trySubmit queues worker by's task t if there is capacity, waking one idle
// worker. On rejection the caller keeps ownership of t (and should recycle
// it).
func (q *queue) trySubmit(t *task, by int) bool {
	q.mu.Lock()
	if q.done || len(q.tasks) >= q.cap {
		q.mu.Unlock()
		return false
	}
	q.push(t, by)
	q.mu.Unlock()
	q.cond.Signal()
	return true
}

// steal blocks until a task is available or the pool terminates. The second
// return is false on termination. Ownership of the task transfers to the
// caller, who recycles it into the pool when done.
func (q *queue) steal() (*task, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.idle++; q.idle == q.workers {
		q.ctl.Signal()
	}
	for {
		switch {
		case q.done:
			return nil, false
		case q.pausing:
			// Held: neither stealing nor termination detection during a round.
		case len(q.tasks) > 0:
			t := q.tasks[0]
			// Close the gap in place — the queue is a few tasks long — so that
			// the backing array is allocated once per run, and zero the vacated
			// slot: the popped task returns to the pool after execution.
			n := copy(q.tasks, q.tasks[1:])
			q.tasks[n] = nil
			q.tasks = q.tasks[:n]
			q.m.QueueDepth.Set(int64(len(q.tasks)))
			if q.idle == q.workers {
				q.ctl.Signal() // the pool has resumed (see round)
			}
			q.idle--
			q.stolen++
			q.m.TasksStolen.Inc()
			return t, true
		case q.idle == q.workers:
			// Everyone is waiting and the queue is empty: no work remains.
			q.done = true
			q.cond.Broadcast()
			return nil, false
		}
		q.cond.Wait()
	}
}

// requeue puts a panicked task back, bypassing the capacity bound (the
// task is in-flight work that must not be dropped; the queue only ever
// exceeds cap transiently, by at most one task per recovering worker) and
// waking one stealer so recovery never deadlocks a fully-idle pool. After
// termination nobody retries it, but a checkpoint-on-stop finds it here.
func (q *queue) requeue(t *task) {
	q.mu.Lock()
	q.tasks = append(q.tasks, t)
	q.m.QueueDepth.Set(int64(len(q.tasks)))
	q.mu.Unlock()
	q.cond.Signal()
}

// handIn takes what an interrupted worker left of its task, if anything.
func (q *queue) handIn(ft search.FrontierTask) {
	if len(ft.Frames) > 0 {
		q.mu.Lock()
		q.handed = append(q.handed, ft)
		q.mu.Unlock()
	}
}

// frontier is the outstanding work of a pool in which no worker is executing
// (held under q.mu, or drained): the queue's tasks plus the hand-ins.
func (q *queue) frontier() []search.FrontierTask {
	tasks := make([]search.FrontierTask, 0, len(q.tasks)+len(q.handed))
	for _, tk := range q.tasks {
		tasks = append(tasks, tk.Clone())
	}
	return append(tasks, q.handed...)
}

// shutdown wakes all waiters and marks the pool finished (stop path).
func (q *queue) shutdown() {
	q.mu.Lock()
	q.done = true
	q.mu.Unlock()
	q.cond.Broadcast()
	q.ctl.Signal()
}

// globals is the state the workers of one run share: the set-up, the queue,
// the atomic counters and the halt flag.
type globals struct {
	su     *search.Setup
	q      *queue
	opt    *Options
	m      *obs.SchedMetrics // never nil (see queue.m)
	treeCh chan treeBlock    // nil when nobody takes the trees
	free   chan []byte       // buffers the collector is done with (nil: not allocated yet)

	trees    atomic.Int64
	states   atomic.Int64
	dead     atomic.Int64
	flushes  atomic.Int64
	nextTask atomic.Int64 // task-id sequence
	live     atomic.Int32 // started workers still running; the last one out closes drained
	drained  chan struct{}
	// perWorker is Result.PerWorker: one entry per configured worker, started or not.
	perWorker []search.Counters
	// work is what each worker's engines did, written by retire.
	work []search.Work
	// halt is the one word a worker polls per engine step: set for good by
	// raise, for the length of a checkpoint round by round. Whichever it
	// was, the worker hands in what is left of its task and goes to steal.
	halt atomic.Bool
	// reason is why raise stopped the run; zero (StopExhausted), it has not.
	reason  atomic.Int32
	limits  search.Limits
	started time.Time
	rec     *obs.Recorder  // nil when tracing is off
	est     *obs.Estimator // nil when estimation is off

	// treesSent/treesDone bracket the tree stream: workers count a block's
	// trees before they send it, the collector counts them after the
	// callbacks return. A checkpoint drains the gap (drainTrees) so its
	// counters never claim trees the spool has not yet seen.
	treesSent atomic.Int64
	treesDone atomic.Int64

	failMu  sync.Mutex
	failErr error // first fatal error (StopFailed path)
}

// fail records the run's fatal error (first one wins) and raises the stop
// flag with StopFailed.
func (g *globals) fail(err error) {
	g.failMu.Lock()
	if g.failErr == nil {
		g.failErr = err
	}
	g.failMu.Unlock()
	g.raise(search.StopFailed)
}

// add accounts a batch of counters in the global totals and their metrics.
func (g *globals) add(c search.Counters) {
	g.trees.Add(c.StandTrees)
	g.states.Add(c.IntermediateStates)
	g.dead.Add(c.DeadEnds)
	g.m.Trees.Add(c.StandTrees)
	g.m.States.Add(c.IntermediateStates)
	g.m.DeadEnds.Add(c.DeadEnds)
}

func (g *globals) snapshot() search.Counters {
	return search.Counters{
		StandTrees:         g.trees.Load(),
		IntermediateStates: g.states.Load(),
		DeadEnds:           g.dead.Load(),
	}
}

// raise stops the run, once: the halt flag interrupts the executing workers
// and the queue's shutdown releases the waiting ones.
func (g *globals) raise(r search.StopReason) {
	if g.reason.CompareAndSwap(0, int32(r)) {
		g.halt.Store(true)
		c := g.snapshot()
		g.rec.Emit(obs.EvStop, -1, obs.F("reason", int64(r)),
			obs.F("trees", c.StandTrees), obs.F("states", c.IntermediateStates))
		g.q.shutdown()
	}
}

// enqueue queues work the run already owns — its shares or resumed frontier
// at start, a round's hand-ins — copied into recycled storage (the branch
// arrays stay ft's) under a fresh lineage id, whatever the capacity. Under
// q.mu, or before the workers start.
func (g *globals) enqueue(ft search.FrontierTask) {
	tk := taskPool.Get().(*task)
	tk.Path = append(tk.Path[:0], ft.Path...)
	tk.Frames = append(tk.Frames[:0], ft.Frames...)
	tk.id = g.nextTask.Add(1)
	g.q.push(tk, -1)
}

// checkLimits evaluates the stopping rules against the global counters.
func (g *globals) checkLimits() {
	if r, hit := g.limits.Exceeded(g.snapshot(), time.Since(g.started)); hit {
		g.raise(r)
	}
}

// Run enumerates the stand with up to opt.Threads workers (<= 0: one). What
// there is to do — the initial split in Threads shares, or a resumed frontier —
// is queued and worker 0 alone started on it: it starts the others at its
// first poll (spawn), so a stand over before that costs what one worker costs.
func Run(constraints []*tree.Tree, opt Options) (*Result, error) {
	// However the run ends, unblock any snapshot request that raced the control
	// loop's exit: a Request landing after the loop's last poll would block for
	// ever (Finish is nil-safe and idempotent).
	defer opt.Checkpoint.Trigger.Finish()
	if opt.Threads <= 0 {
		opt.Threads = 1
	}
	opt.Limits = opt.Limits.Normalize()
	opt.Policy = opt.Policy.Normalize(opt.Threads)
	if opt.MaxTaskRetries == 0 {
		opt.MaxTaskRetries = DefaultMaxTaskRetries
	} else if opt.MaxTaskRetries < 0 {
		opt.MaxTaskRetries = -1 // first panic is fatal
	}
	ck := opt.Checkpoint
	if ck.Interval == 0 && ck.Every > 0 {
		ck.Interval = time.Second
	}

	res := &Result{Stop: search.StopExhausted}
	m := opt.Obs.SchedMetrics()
	m.EnsureWorkers(opt.Threads)
	g := &globals{opt: &opt, m: m, limits: opt.Limits, started: time.Now(),
		rec: opt.Obs.Recorder(), est: opt.Obs.Estimator()}

	// Shared set-up: initial tree, prefix walk (or the checkpoint's frontier
	// view), and the outstanding work. What it already counted seeds the
	// globals and stands in as Result.Prefix, preserving the conservation
	// invariant Counters == Prefix + sum(PerWorker).
	su, err := search.Start(constraints, opt.InitialTree, opt.Heuristic, nil, ck.Resume, opt.Threads)
	if err != nil {
		return nil, err
	}
	res.InitialIndex = su.InitialIndex
	res.PrefixLen = len(su.Frontier.Prefix)
	res.Counters = su.Counters
	res.Prefix = su.Counters
	g.add(su.Counters)
	g.est.AddCounters(su.Counters.StandTrees, su.Counters.IntermediateStates, su.Counters.DeadEnds)
	g.est.AddLeafMass(su.LeafMass, su.Leaves)
	if len(su.Frontier.Tasks) == 0 {
		// Nothing to run: an empty stand, a prefix that closed the whole
		// space (at most one tree), or a snapshot of a finished run.
		if sink := opt.sink(res); sink != nil && su.Tree != "" {
			sink(append([]byte(su.Tree), '\n'), 1)
		}
		su.Release()
		res.Elapsed = time.Since(g.started)
		return res, nil
	}

	q := newQueue(opt.Policy.QueueCap, 1, m)
	// The gauge is the live view of this queue: however the run ends, failed
	// with tasks still queued included, it ends empty.
	defer m.QueueDepth.Set(0)
	q.rec = g.rec
	g.su, g.q = su, q
	// One way in: shares and resumed frontier alike are queued, and stolen.
	for _, ft := range su.Frontier.Tasks {
		g.enqueue(ft)
	}

	// Cancellation raises the stop the moment the context is done; workers
	// notice at their next tick, waiting ones are woken.
	if opt.Ctx != nil {
		defer context.AfterFunc(opt.Ctx, func() { g.raise(search.StopCancelled) })()
	}

	// Streaming: workers send their blocks of stand trees into a bounded
	// channel; one collector goroutine drains it into the callbacks and/or
	// the merged result and returns the buffers through the free list.
	var collectDone chan struct{}
	if sink := opt.sink(res); sink != nil {
		g.treeCh = make(chan treeBlock, treeBlocks)
		g.free = make(chan []byte, treeBlocks)
		for i := 0; i < treeBlocks; i++ {
			g.free <- nil
		}
		collectDone = make(chan struct{})
		go func() {
			defer close(collectDone)
			// After a panic in the sink the run is failing: discard the rest
			// of the stream so that no worker stays blocked at the free list.
			for g.collect(sink) {
				sink = func([]byte, int) {}
			}
		}()
	}

	g.perWorker = make([]search.Counters, opt.Threads)
	g.work = make([]search.Work, opt.Threads)
	g.drained = make(chan struct{})
	g.start(&worker{globals: g, rest: opt.Threads - 1})

	// Run's own goroutine is the control loop until the pool has drained:
	// each trigger request and each interval tick takes one round.
	var tick <-chan time.Time
	if ck.Interval > 0 && ck.Sink != nil {
		tkr := time.NewTicker(ck.Interval)
		defer tkr.Stop()
		tick = tkr.C
	}
	for running := true; running; {
		select {
		case <-g.drained:
			running = false
		case reply := <-ck.Trigger.Requests():
			reply <- g.round()
		case <-tick:
			if cp := g.round(); cp != nil {
				ck.Sink(cp)
			}
		}
	}
	if g.treeCh != nil {
		close(g.treeCh)
		<-collectDone
	}
	// The pool has drained: no worker holds a Terrace any more.
	su.Release()

	if g.failErr != nil {
		// A task ran out of panic retries, or the tree sink panicked: the pool
		// has drained, but the enumeration is incomplete in an unquantifiable
		// way — return the structured error, not misleading partial counters.
		return nil, g.failErr
	}

	for i, c := range g.perWorker {
		res.Counters.Add(c)
		res.Work.Add(g.work[i])
	}
	res.PerWorker = g.perWorker
	res.TasksStolen = q.stolen
	res.Flushes = g.flushes.Load()
	res.Stop = search.StopReason(g.reason.Load())
	if ck.OnStop && res.Stop != search.StopExhausted && res.Stop != search.StopFailed {
		// The pool has drained: the queue's remnant plus what the workers handed
		// in as they hit the stop are exactly the outstanding work.
		res.Checkpoint = su.Checkpoint(res.Counters, opt.Threads, q.frontier())
	}
	res.Elapsed = time.Since(g.started)
	return res, nil
}

// sink is where the collector puts a block: the forms the caller asked for
// (search.TreeSink); nil when nobody wants the trees.
func (opt *Options) sink(res *Result) func(block []byte, n int) {
	return search.TreeSink[[]byte](opt.CollectTrees, &res.Trees, opt.OnTree, opt.OnTrees)
}

// worker is one pool worker: a search.Worker — the per-thread protocol,
// Terrace and engine included — plus what the pool adds around it. It is the
// search.Host that Worker reports to.
type worker struct {
	*globals
	id    int
	wk    *search.Worker
	units int64 // ticked so far, in the paper machine's transitions
	rest  int   // worker 0: the workers it has not started yet

	// cur is the id of the task being executed — the parent stamped onto its
	// submissions (lineage tracing).
	cur int64
	// dirty marks the current task attempt as having published externally
	// visible progress — a counter flush, a block of trees handed on, or a
	// submitted sub-task. A panic after that point must not requeue the task:
	// the retry would re-count the flushed portion, re-emit the trees, and
	// re-explore halves another worker already owns. Trees still in the
	// worker's own block are not progress: they go with the search.Worker.
	dirty bool
}

// retire accounts what w's search.Worker did, at exit or before a panic's
// wreckage is discarded.
func (w *worker) retire() {
	w.work[w.id].Add(w.wk.Work())
}

// Offer builds a task from the last n branches of f in recycled storage and
// submits it if the queue has room.
func (w *worker) Offer(path []search.PathStep, f *search.Frame, n int) int {
	tk := taskPool.Get().(*task)
	tk.Path = append(tk.Path[:0], path...)
	tk.branches = append(tk.branches[:0], f.Branches[len(f.Branches)-n:]...)
	tk.Frames = append(tk.Frames[:0], search.FrameSnapshot{
		Taxon: f.Taxon, Branches: tk.branches, Weight: f.BranchWeight()})
	tk.id, tk.parent = w.nextTask.Add(1), w.cur
	// A successful submit transfers tk's ownership to the queue: a stealer
	// may finish and recycle it at any moment, so nothing below may touch tk.
	if !w.q.trySubmit(tk, w.id) {
		recycleTask(tk)
		return 0
	}
	w.dirty = true
	return n
}

// Publish adds a counter batch to the global totals and re-evaluates the
// stopping rules.
func (w *worker) Publish(c search.Counters) {
	wm := w.m.Worker(w.id)
	w.dirty = true
	w.add(c)
	w.flushes.Add(1)
	wm.Trees.Add(c.StandTrees)
	wm.States.Add(c.IntermediateStates)
	wm.DeadEnds.Add(c.DeadEnds)
	w.rec.Emit(obs.EvFlush, w.id,
		obs.F("trees", c.StandTrees),
		obs.F("states", c.IntermediateStates),
		obs.F("dead", c.DeadEnds))
	w.perWorker[w.id].Add(c)
	w.checkLimits()
}

// treeBlock is n stand trees on their way to the collector.
type treeBlock struct {
	b []byte
	n int
}

// Trees streams a block of stand trees to the collector, in exchange for a
// buffer from the free list: the list starts as treeBlocks buffers not
// allocated yet (nil: the engine allocates), and a block is sent only against
// one of them, so at most treeBlocks blocks are on their way, the send never
// blocks, a run owns at most that many buffers and one per worker however
// many trees it finds, and a slow sink holds the workers here. The block is
// externally visible the moment it is sent, so the attempt is marked before
// the send: a panic anywhere after must not requeue-and-duplicate it. The
// sent counter lets a checkpoint wait for the collector to catch up
// (drainTrees). The run's first block — one tree — also yields the
// processor: the collector the send woke is queued behind this worker and,
// every processor busy, would not run until the free list ran out.
func (w *worker) Trees(block []byte, n int) []byte {
	next := <-w.free
	w.dirty = true
	first := w.treesSent.Add(int64(n)) == int64(n)
	w.treeCh <- treeBlock{block, n}
	if first {
		runtime.Gosched()
	}
	return next
}

// execute runs one task to its end, or to the halt flag, under a recover()
// barrier. Execution never mutates the task, so a panic before the attempt
// publishes any progress (see dirty) requeues it verbatim for any worker: the
// unflushed batch goes with the discarded search.Worker (it reached neither
// the globals nor the per-worker total, so conservation stays exact). A
// panic after visible progress — or once the task's retries exceed the
// budget — fails the run with a *WorkerPanicError. Returns true when the
// caller still owns the task; false when recovery took it over.
func (w *worker) execute(tk *task) (ok bool) {
	q, rec := w.q, w.rec
	w.dirty = false
	w.cur = tk.id
	rec.Emit(obs.EvTaskStart, w.id, obs.F("task", tk.id), obs.F("parent", tk.parent),
		obs.F("taxon", int64(tk.root().Taxon)), obs.F("branches", int64(len(tk.root().Branches))),
		obs.F("path", int64(len(tk.Path))))
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		stack := debug.Stack()
		w.m.WorkerPanics.Inc()
		rec.Emit(obs.EvPanic, w.id, obs.F("task", tk.id), obs.F("taxon", int64(tk.root().Taxon)),
			obs.F("attempt", int64(tk.retries+1)))
		rec.Emit(obs.EvTaskEnd, w.id, obs.F("task", tk.id), obs.F("panic", 1))
		w.retire()
		// The unwound stack can have left Terrace and engine mid-mutation: a new
		// search.Worker is the one repair that needs no trust in the wreckage.
		w.wk = w.su.NewWorker(w.opt.Policy, w, w.est, w.treeCh != nil)
		tk.retries++
		if !w.dirty && w.opt.MaxTaskRetries >= 0 && tk.retries <= w.opt.MaxTaskRetries {
			q.requeue(tk)
			return
		}
		w.fail(&WorkerPanicError{Worker: w.id, Value: r, Stack: stack, Attempts: tk.retries, Dirty: w.dirty})
	}()
	w.opt.Fault.MaybePanic(faultinject.TaskExec)
	if err := w.wk.Begin(tk.FrontierTask); err != nil {
		w.fail(err)
		return true
	}
	for ph, cost := search.Replay, int64(0); ; {
		if ph == search.Explore {
			w.opt.Fault.MaybePanic(faultinject.EngineStep)
		}
		if ph, cost = w.wk.Tick(); ph == search.Idle {
			break
		}
		// Every 1024 transitions of the paper's machine, as the serial runner.
		if was := w.units; (was+cost)>>10 != was>>10 {
			w.checkLimits()
			if w.rest > 0 {
				w.spawn()
			}
		}
		w.units += cost
		// Polled after engine steps only: a stolen task gets past its path replay
		// and a step further, so back-to-back rounds cannot replay it for ever.
		if cost > 0 && ph == search.Explore && w.halt.Load() {
			break
		}
	}
	// Interrupted — by a stop or by a checkpoint round, the worker does not
	// care which — it publishes its batch, hands in what is left of the task
	// (nothing, when the task ran to its end) and is idle at I_0 again.
	w.wk.Flush()
	q.handIn(w.wk.Snapshot())
	w.wk.Drop()
	rec.Emit(obs.EvTaskEnd, w.id, obs.F("task", tk.id))
	return true
}

// start runs w on a goroutine of its own. Its search.Worker is made here, by
// the starter: a run's second is cut from the Terrace of worker 0
// (search.Setup.NewTerrace), which only worker 0 may read.
func (g *globals) start(w *worker) {
	w.wk = w.su.NewWorker(w.opt.Policy, w, w.est, w.treeCh != nil)
	g.live.Add(1)
	go func() {
		w.run()
		if g.live.Add(-1) == 0 {
			close(g.drained)
		}
	}()
}

// spawn has worker 0 start the others, at the first poll execute makes anyway
// and unless the pool is done by then: a worker beyond the first costs its
// clone and its goroutine once the stand has outlived 1024 transitions, as
// most of a corpus do not. q.workers changes under q.mu: between two
// evaluations of the idle == workers barrier, never during one.
func (w *worker) spawn() {
	n := w.rest
	w.rest = 0
	w.q.mu.Lock()
	if w.q.done {
		n = 0
	}
	w.q.workers += n
	w.q.mu.Unlock()
	for id := 1; id <= n; id++ {
		w.start(&worker{globals: w.globals, id: id})
	}
}

// run is the body of one pool worker: the stealing pool, until the queue
// reports termination.
func (w *worker) run() {
	q, rec := w.q, w.rec
	rec.Emit(obs.EvWorkerStart, w.id)
	for {
		tk, ok := q.steal()
		if !ok {
			break
		}
		w.m.Worker(w.id).Stolen.Inc()
		rec.Emit(obs.EvSteal, w.id, obs.F("task", tk.id),
			obs.F("taxon", int64(tk.root().Taxon)),
			obs.F("branches", int64(len(tk.root().Branches))),
			obs.F("path", int64(len(tk.Path))))
		if w.execute(tk) {
			recycleTask(tk)
		}
	}
	w.retire()
}
