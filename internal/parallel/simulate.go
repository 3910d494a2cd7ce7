// The virtual-time host: the scheduler Run drives with goroutines, run by a
// deterministic discrete clock instead. N virtual workers are advanced in
// lockstep on one goroutine: each state transition (taxon insertion or
// removal), each path-replay step and each dequeue costs one tick of virtual
// time; busy-waiting costs wall ticks but no work. The transitions are the
// paper machine's: the engine counts the last taxon's frame without
// inserting it, and the host charges the insertions and removals that saves
// (search.Worker.Tick reports them).
//
// The host this reproduction runs on has two cores (every end-to-end pair in
// EXPERIMENTS.md runs at GOMAXPROCS 2), so real goroutine speedups beyond 2x
// are physically impossible where the paper uses up to 16 threads; but the
// paper's observed phenomena — linear speedups, plateaus from unbalanced
// workflow trees, super-linear speedups through the stopping rules, adapted
// speedups — are consequences of the branch-and-bound workload shape
// interacting with the scheduling policy, which this host runs unchanged.
// Speedup(N) is measured as makespan(1 worker) / makespan(N workers) in
// ticks.
//
// The host also models global-counter contention for the paper's
// counter-batching ablation (Sec. III-B): every flush of local counters into
// the shared totals stalls the flushing worker for FlushCost ticks, so
// unbatched updates (batch size 1) pay the cost on every transition.
package parallel

import (
	"errors"
	"fmt"

	"gentrius/internal/obs"
	"gentrius/internal/search"
	"gentrius/internal/tree"
)

// VirtualTime is what Simulate takes beside search.Options: the settings of
// its clock.
type VirtualTime struct {
	// MaxTicks is rule 3 on the virtual clock: the run stops with
	// StopTimeLimit at this many ticks (<= 0: no bound).
	MaxTicks int64

	// FlushCost is the virtual-time price of one global-counter flush
	// (atomic contention). Zero means free.
	FlushCost int64

	// TraceEvery > 0 samples each worker's mode every TraceEvery ticks into
	// SimResult.Timeline — a textual Gantt chart of the pool (the paper's
	// Figure 3 load-imbalance picture). Zero disables tracing.
	TraceEvery int64
}

// WorkerClock is one virtual worker's time; its counters are the Result's
// PerWorker entry.
type WorkerClock struct {
	Busy   int64 // ticks spent on insertions/removals/replay/flush stalls
	Idle   int64 // ticks spent busy-waiting for tasks
	Replay int64 // subset of Busy spent replaying paths and rewinding
	Tasks  int64 // tasks executed
}

// SimResult of a simulated run: the Result every driver returns, and what
// only the virtual clock has.
type SimResult struct {
	search.Result
	Ticks int64 // makespan in virtual time
	// Timeline holds one row per worker when VirtualTime.TraceEvery was set:
	// 'W' working, 'R' replaying/rewinding, 'F' stalled on a counter flush,
	// '.' idle (busy-waiting).
	Timeline []string
	// Clocks is each worker's virtual time, one entry per worker.
	Clocks []WorkerClock
}

// RenderTimeline formats the timeline rows for display.
func (r *SimResult) RenderTimeline() string {
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
func (r *SimResult) Efficiency() float64 {
	if r.Ticks == 0 || len(r.Clocks) == 0 {
		return 1
	}
	busy := int64(0)
	for _, w := range r.Clocks {
		busy += w.Busy
	}
	return float64(busy) / float64(r.Ticks*int64(len(r.Clocks)))
}

// sim is the virtual host of one run's scheduler.
type sim struct {
	sched
	tick      int64
	flushCost int64
	sink      func(block []byte, n int) // the run's tree sink; nil when nobody wants the trees
}

// simWorker is one virtual worker: the scheduler's worker plus the clock's
// bookkeeping.
type simWorker struct {
	*sim
	worker
	phase search.Phase // wk's, after this worker's last tick
	stats WorkerClock
	owed  int64 // ticks the last engine step still costs (a final frame)
	stall int64 // remaining flush-stall ticks
	trace []byte
}

// Simulate runs the scheduler on virtual time and returns its metrics. It
// takes opt in the sense search.Run and Run give it — Threads workers (one
// simulates the serial execution through the same machinery), the tree and
// state rules, the initial tree and insertion order, the tree sink, Ctx
// (polled every CheckEvery ticks, which reads no clock: an uncancelled run
// stays deterministic), resuming and the checkpoint on stop, Policy, and
// Obs, whose trace is stamped with virtual time — and refuses what needs a
// wall clock, another goroutine or a recover: a positive MaxTime (vt's tick
// bound is rule 3 here), periodic or triggered checkpoints, and Fault. The
// run starts as Run's does — its tasks queued, stolen by the workers —
// except that the virtual host's spawn point is before the first tick: a
// clone costs no virtual time, and the paper starts every thread at I_0.
func Simulate(constraints []*tree.Tree, opt search.Options, vt VirtualTime) (*SimResult, error) {
	// However the run ends, refused included, unblock any trigger requester.
	defer opt.Checkpoint.Trigger.Finish()
	switch ck := opt.Checkpoint; {
	case opt.Limits.MaxTime > 0:
		return nil, errors.New("parallel: Simulate has no wall clock: its time rule is VirtualTime.MaxTicks, not MaxTime")
	case ck.Interval > 0 || ck.Sink != nil || ck.Trigger != nil:
		return nil, errors.New("parallel: Simulate takes no periodic or triggered checkpoints")
	case opt.Fault != nil:
		return nil, errors.New("parallel: Simulate takes no fault injection")
	}
	// The scheduler tests the tree and state rules; the tick bound is the clock's.
	opt.Limits.MaxTime = -1
	su, err := opt.Start(constraints)
	if err != nil {
		return nil, err
	}
	// The virtual workers run on this goroutine: at any return they are done.
	defer su.Release()
	opt.Policy = opt.Policy.Normalize(opt.Threads)
	prefixLen := int64(len(su.Frontier.Prefix))
	res := &SimResult{Result: *su.Result(), Ticks: prefixLen} // every worker replays the prefix concurrently
	v := &sim{tick: prefixLen, flushCost: vt.FlushCost,
		sink: search.TreeSink[[]byte](opt.CollectTrees, &res.Trees, opt.OnTree, opt.OnTrees)}
	m := opt.Obs.SchedMetrics()
	m.EnsureWorkers(opt.Threads)
	v.sched = sched{su: su, policy: opt.Policy, limits: opt.Limits, m: m,
		rec: opt.Obs.Recorder(), est: opt.Obs.Estimator(), clock: func() int64 { return v.tick }}
	if !v.start(opt.Threads, v.sink) {
		res.SetWork(su, search.Work{})
		return res, nil
	}
	defer m.QueueDepth.Set(0)
	workers := make([]*simWorker, opt.Threads)
	for id := range workers {
		w := &simWorker{sim: v, worker: worker{s: &v.sched, id: id}}
		w.wk = su.NewWorker(opt.Policy, w, v.est, v.sink != nil)
		w.stats.Busy, w.stats.Replay = prefixLen, prefixLen
		v.emit(obs.EvWorkerStart, id)
		workers[id] = w
	}

	// One tick advances every worker by one transition.
	for !v.halt.Load() {
		allIdle := true
		trace := vt.TraceEvery > 0 && v.tick%vt.TraceEvery == 0
		for _, w := range workers {
			w.advance()
			if w.cur != nil {
				allIdle = false
			}
			if trace {
				w.trace = append(w.trace, w.mode())
			}
		}
		v.tick++
		if allIdle && len(v.tasks) == 0 {
			break
		}
		if vt.MaxTicks > 0 && v.tick >= vt.MaxTicks {
			v.raise(search.StopTimeLimit)
		}
		if opt.Ctx != nil && v.tick%int64(opt.CheckEvery) == 0 && opt.Ctx.Err() != nil {
			v.raise(search.StopCancelled)
		}
	}
	// Stopped, every worker is interrupted at its last tick.
	var work search.Work
	for _, w := range workers {
		if w.cur != nil {
			w.end()
		}
		work.Add(w.wk.Work())
	}
	if v.failErr != nil {
		return nil, v.failErr
	}
	res.Counters = v.totals()
	res.PerWorker = v.perWorker
	res.Ticks = v.tick
	res.TasksStolen = v.stolen
	res.Flushes = v.flushes.Load()
	res.Stop = search.StopReason(v.reason.Load())
	res.SetWork(su, work)
	for _, w := range workers {
		res.Clocks = append(res.Clocks, w.stats)
		if vt.TraceEvery > 0 {
			res.Timeline = append(res.Timeline, string(w.trace))
		}
	}
	if opt.Checkpoint.OnStop {
		res.Checkpoint = v.checkpointOnStop(opt.Threads)
	}
	return res, nil
}

// mode maps the worker's instantaneous state to its timeline symbol.
func (w *simWorker) mode() byte {
	if w.owed == 0 && w.stall > 0 {
		return 'F'
	}
	return ".RWR"[w.phase] // search.Idle, Replay, Explore, Rewind
}

// advance spends one virtual tick of w: on a flush stall, on one unit of its
// task — turning from one phase into the next is free — or, idle, on the
// dequeue of the next task. The engine takes a final frame of m branches in
// one step where the paper's machine takes 2m transitions: the other 2m-1
// are owed to the clock. The clock grants the engine no budget (Tick(0)): a
// worker's flush, the tick bound or a poll may stop the run at any tick, so
// the engine takes one branch a step.
func (w *simWorker) advance() {
	for {
		switch {
		case w.owed > 0:
			w.owed--
		case w.stall > 0:
			w.stall--
		case w.cur != nil:
			var cost int64
			if w.phase, cost = w.wk.Tick(0); cost == 0 {
				if w.phase == search.Idle {
					w.end()
				}
				continue
			}
			w.owed += cost - 1
			if w.phase != search.Explore {
				w.stats.Replay++
			}
		default:
			w.mu.Lock()
			tk := w.pop(w.id)
			w.mu.Unlock()
			if tk == nil {
				w.stats.Idle++
				return
			}
			w.stats.Tasks++
			if w.begin(tk) {
				w.phase = search.Replay
			}
		}
		w.stats.Busy++
		return
	}
}

// Publish publishes the batch through the scheduler and charges its
// contention. The paper's machine counts a final frame tree by tree, and the
// state above it before that, where a look-ahead step publishes both at
// once: it would have filled its tree batch and its state batch, and paid
// for a flush, this many times on the way.
func (w *simWorker) Publish(c search.Counters) {
	w.worker.Publish(c)
	w.stall += w.flushCost * max(1, c.StandTrees/w.policy.TreeBatch+c.IntermediateStates/w.policy.StateBatch)
}

// Trees hands a block of stand trees to the run's sink.
func (w *simWorker) Trees(block []byte, n int) []byte {
	w.sink(block, n)
	return block
}
