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
	"context"
	"fmt"

	"gentrius/internal/obs"
	"gentrius/internal/search"
	"gentrius/internal/tree"
)

// SimLimits are the stopping rules in virtual units: rule 3's wall-clock
// bound becomes a tick bound. Zero MaxTrees/MaxStates select the paper
// defaults; zero MaxTicks means unlimited; negative values mean unlimited.
type SimLimits struct {
	MaxTrees  int64
	MaxStates int64
	MaxTicks  int64
}

// SimOptions configures a simulated run.
type SimOptions struct {
	Workers int
	Limits  SimLimits

	// InitialTree: constraint index, or negative for the paper's heuristic.
	InitialTree int

	// Policy overrides the scheme's constants — counter batch sizes (a
	// batch of 1 models unbatched updates), queue capacity, submission
	// depth restriction, split granularity; zero fields select the paper's
	// values. It is the same search.Policy Run takes.
	Policy search.Policy

	// FlushCost is the virtual-time price of one global-counter flush
	// (atomic contention). Zero means free.
	FlushCost int64

	// Heuristic refines the dynamic taxon selection used by every worker
	// (zero value: the paper's min-branches rule).
	Heuristic search.OrderHeuristic

	CollectTrees bool

	// TraceEvery > 0 samples each worker's mode every TraceEvery ticks into
	// SimResult.Timeline — a textual Gantt chart of the pool (the paper's
	// Figure 3 load-imbalance picture). Zero disables tracing.
	TraceEvery int64

	// Trace, if non-nil, receives the scheduler's events — the ones Run
	// traces — stamped with virtual time. The host is single-threaded and
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
	// of the initial split — the snapshot form Run produces and consumes.
	// Any Workers count may consume any snapshot. InitialTree and Heuristic
	// are taken from the checkpoint.
	Resume *search.Checkpoint

	// CheckpointOnStop captures the outstanding task frontier into
	// SimResult.Checkpoint when the run stops on a limit or cancellation
	// (nil when the stand was exhausted or the run failed).
	CheckpointOnStop bool
}

// SimWorkerStats describes one virtual worker's activity.
type SimWorkerStats struct {
	search.Counters
	Busy   int64 // ticks spent on insertions/removals/replay/flush stalls
	Idle   int64 // ticks spent busy-waiting for tasks
	Replay int64 // subset of Busy spent replaying paths and rewinding
	Tasks  int64 // tasks executed
}

// SimResult of a simulated run.
type SimResult struct {
	search.Counters
	Stop         search.StopReason
	Ticks        int64 // makespan in virtual time
	PrefixLen    int
	TasksStolen  int64
	Flushes      int64
	Trees        []string
	PerWorker    []SimWorkerStats
	InitialIndex int
	// Timeline holds one row per worker when SimOptions.TraceEvery was set:
	// 'W' working, 'R' replaying/rewinding, 'F' stalled on a counter flush,
	// '.' idle (busy-waiting).
	Timeline []string
	// Checkpoint holds the frontier snapshot when SimOptions.CheckpointOnStop
	// was set and a stopping rule or cancellation ended the run.
	Checkpoint *search.Checkpoint
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
	if r.Ticks == 0 || len(r.PerWorker) == 0 {
		return 1
	}
	busy := int64(0)
	for _, w := range r.PerWorker {
		busy += w.Busy
	}
	return float64(busy) / float64(r.Ticks*int64(len(r.PerWorker)))
}

// sim is the virtual host of one run's scheduler.
type sim struct {
	sched
	tick      int64
	flushCost int64
	sink      func(block []byte, n int) // into SimResult.Trees; nil when nobody wants them
}

// simWorker is one virtual worker: the scheduler's worker plus the clock's
// bookkeeping.
type simWorker struct {
	*sim
	worker
	phase search.Phase // wk's, after this worker's last tick
	stats SimWorkerStats
	owed  int64 // ticks the last engine step still costs (a final frame)
	stall int64 // remaining flush-stall ticks
	trace []byte
}

// Simulate runs the scheduler on virtual time and returns its metrics.
// Workers <= 1 simulates the serial execution through the same machinery
// (one worker, no stealing partners). The run starts as Run's does — its
// tasks queued, stolen by the workers — except that the virtual host's spawn
// point is before the first tick: a clone costs no virtual time, and the
// paper starts every thread at I_0.
func Simulate(constraints []*tree.Tree, opt SimOptions) (*SimResult, error) {
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
	res := &SimResult{
		Stop:         search.StopExhausted,
		InitialIndex: su.InitialIndex,
		PrefixLen:    int(prefixLen),
		Counters:     su.Counters,
		Ticks:        prefixLen, // every worker replays the prefix concurrently
	}
	v := &sim{tick: prefixLen, flushCost: opt.FlushCost, sink: search.TreeSink[[]byte](opt.CollectTrees, &res.Trees, nil, nil)}
	// The scheduler tests the tree and state rules; the tick bound is the clock's.
	lim := search.Limits{MaxTrees: opt.Limits.MaxTrees, MaxStates: opt.Limits.MaxStates, MaxTime: -1}
	v.sched = sched{su: su, policy: opt.Policy, limits: lim.Normalize(),
		m: (*obs.Sink)(nil).SchedMetrics(), rec: opt.Trace, est: opt.Estimator,
		clock: func() int64 { return v.tick }}
	if !v.start(opt.Workers, v.sink) {
		return res, nil
	}
	workers := make([]*simWorker, opt.Workers)
	for id := range workers {
		w := &simWorker{sim: v, worker: worker{s: &v.sched, id: id}}
		w.wk = su.NewWorker(opt.Policy, w, opt.Estimator, v.sink != nil)
		w.stats.Busy, w.stats.Replay = prefixLen, prefixLen
		v.emit(obs.EvWorkerStart, id)
		workers[id] = w
	}

	// One tick advances every worker by one transition.
	for !v.halt.Load() {
		allIdle := true
		trace := opt.TraceEvery > 0 && v.tick%opt.TraceEvery == 0
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
		if opt.Limits.MaxTicks > 0 && v.tick >= opt.Limits.MaxTicks {
			v.raise(search.StopTimeLimit)
		}
		if opt.Ctx != nil && v.tick&1023 == 0 && opt.Ctx.Err() != nil {
			v.raise(search.StopCancelled)
		}
	}
	// Stopped, every worker is interrupted at its last tick.
	for _, w := range workers {
		if w.cur != nil {
			w.end()
		}
	}
	if v.failErr != nil {
		return nil, v.failErr
	}
	res.Counters = v.totals()
	res.Ticks = v.tick
	res.TasksStolen = v.stolen
	res.Flushes = v.flushes.Load()
	res.Stop = search.StopReason(v.reason.Load())
	for id, w := range workers {
		w.stats.Counters = v.perWorker[id]
		res.PerWorker = append(res.PerWorker, w.stats)
		if opt.TraceEvery > 0 {
			res.Timeline = append(res.Timeline, string(w.trace))
		}
	}
	if opt.CheckpointOnStop {
		res.Checkpoint = v.checkpointOnStop(opt.Workers)
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
// are owed to the clock.
func (w *simWorker) advance() {
	for {
		switch {
		case w.owed > 0:
			w.owed--
		case w.stall > 0:
			w.stall--
		case w.cur != nil:
			var cost int64
			if w.phase, cost = w.wk.Tick(); cost == 0 {
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
