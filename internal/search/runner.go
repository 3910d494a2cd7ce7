package search

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime/debug"
	"slices"
	"time"

	"gentrius/internal/faultinject"
	"gentrius/internal/obs"
	"gentrius/internal/tree"
)

// StopReason says why a run ended.
type StopReason int8

// Stop reasons, mirroring the paper's three stopping rules.
const (
	StopExhausted  StopReason = iota // full stand enumerated
	StopTreeLimit                    // rule 1: more than MaxTrees stand trees
	StopStateLimit                   // rule 2: more than MaxStates intermediate states
	StopTimeLimit                    // rule 3: wall-clock budget exceeded
	StopCancelled                    // the caller's context was cancelled
	StopFailed                       // a task panicked: the run returns a *PanicError and no result
)

// PanicError is how every host of the scheme fails a run whose task
// panicked — in the engine, at a fault site, or in the tree sink the task
// hands its blocks to: the run stops (StopFailed), returns no Result and no
// checkpoint, and the only retry is a resume from a snapshot taken before.
// The engine is deterministic, so running the task again would panic again.
type PanicError struct {
	Value any    // the panic value (a faultinject.Panic for an injected fault)
	Stack []byte // the panicking goroutine's stack, captured at the recover
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("search: task panicked: %v", e.Value)
}

func (s StopReason) String() string {
	switch s {
	case StopExhausted:
		return "exhausted"
	case StopTreeLimit:
		return "tree-limit"
	case StopStateLimit:
		return "state-limit"
	case StopTimeLimit:
		return "time-limit"
	case StopCancelled:
		return "cancelled"
	case StopFailed:
		return "failed"
	default:
		return fmt.Sprintf("StopReason(%d)", int8(s))
	}
}

// Default stopping-rule parameters from the paper (Sec. II-B).
const (
	DefaultMaxTrees  = int64(1_000_000)
	DefaultMaxStates = int64(10_000_000)
	DefaultMaxTime   = 168 * time.Hour
)

// Limits are the three stopping rules. Zero values mean "use the default";
// negative values mean "unlimited".
type Limits struct {
	MaxTrees  int64
	MaxStates int64
	MaxTime   time.Duration
}

// Normalize fills in defaults.
func (l Limits) Normalize() Limits {
	if l.MaxTrees == 0 {
		l.MaxTrees = DefaultMaxTrees
	}
	if l.MaxStates == 0 {
		l.MaxStates = DefaultMaxStates
	}
	if l.MaxTime == 0 {
		l.MaxTime = DefaultMaxTime
	}
	return l
}

// Exceeded returns the violated rule, if any.
func (l Limits) Exceeded(c Counters, elapsed time.Duration) (StopReason, bool) {
	if l.MaxTrees > 0 && c.StandTrees >= l.MaxTrees {
		return StopTreeLimit, true
	}
	if l.MaxStates > 0 && c.IntermediateStates >= l.MaxStates {
		return StopStateLimit, true
	}
	if l.MaxTime > 0 && elapsed >= l.MaxTime {
		return StopTimeLimit, true
	}
	return StopExhausted, false
}

// Options configures a run of either driver of the scheme: Run, its one
// worker, and parallel.Run, a pool of Threads. Every field means the same to
// both; the driver refuses only what is the other's by definition — Run a
// width above one and a Policy, the pool OnCheck.
type Options struct {
	// Threads is the pool's width (<= 0: one).
	Threads int

	Limits Limits

	// InitialTree selects the initial agile tree: a constraint index, or a
	// negative value to apply the paper's selection heuristic.
	InitialTree int

	// Heuristic refines the dynamic taxon selection of every worker (zero
	// value: the paper's min-branches rule); see OrderHeuristic.
	Heuristic OrderHeuristic

	// DisableDynamicOrder replaces the fewest-branches taxon selection with
	// a fixed insertion order, for the prefix walk and every worker alike:
	// ShuffleSeed shuffles the missing-taxon list (the paper's second
	// ablation); with ShuffleSeed == 0 the order is ascending taxon id.
	// Checkpointing requires the dynamic order: checkpoints record no static
	// one.
	DisableDynamicOrder bool
	ShuffleSeed         int64

	// CollectTrees stores every stand tree's canonical Newick string in
	// Result.Trees (merged across a pool's workers in no particular order).
	// Off by default: stands can be enormous.
	CollectTrees bool
	// OnTree, if set, receives every stand tree found, a block at a time (see
	// OnTrees): the strings are cut from one string per block.
	OnTree func(newick string)
	// OnTrees, if set, receives the stand in blocks: n canonical Newick
	// strings, each newline-terminated, in bytes valid only during the call,
	// handed on at BlockSize, whenever a worker publishes its counters (so
	// before any snapshot), at the end of its task, and the run's first tree
	// alone (TreeSink serves all three forms). Run calls it inline, in
	// enumeration order; a pool's blocks stream through a bounded channel to
	// one collector goroutine: serialized calls in no particular order, and a
	// slow callback holds the workers back.
	OnTrees func(newicks []byte, n int)

	// CheckEvery is the interval between stopping-rule evaluations, in
	// transitions of the paper's machine (Work.Units; default 1024; time is
	// only sampled at these checks). A final frame is not divided, so a
	// check can come up to one frame late. A pool's workers each poll at
	// this interval, and worker 0 starts the others at its first poll.
	CheckEvery int

	// OnCheck, if set, receives the live counters at every stopping-rule
	// check of Run (every CheckEvery steps). The pool has no such check: it
	// refuses OnCheck.
	OnCheck func(c Counters, elapsed time.Duration)

	// Ctx cancels the run, which then returns normally with Stop ==
	// StopCancelled; the context's error is not propagated. Run polls it at
	// its stopping-rule checks (the hot loop stays branch-cheap), so its
	// latency is one CheckEvery interval and one final frame; a pool raises
	// its stop the moment the context is done and drains within about one
	// step per worker.
	Ctx context.Context

	// Checkpoint configures snapshots and resuming (see CheckpointPolicy).
	Checkpoint CheckpointPolicy

	// Policy overrides the scheme's constants — counter batch sizes, queue
	// capacity, submission depth restriction, split; zero fields select the
	// paper's values. Run refuses any: its one worker offers nothing and
	// publishes at every check.
	Policy Policy

	// Obs attaches observability at any width: every published batch of
	// counters, the prefix's included, goes to its Metrics, and the closed
	// leaves to its Estimate (a resumed run's seeded with the mass consumed
	// before the checkpoint). A pool also feeds the queue and per-worker
	// metrics and traces its scheduler's events; Run emits no events. Nil
	// disables all of it at one predictable branch per instrument.
	Obs *obs.Sink

	// Fault attaches deterministic fault injection to every Worker of the
	// run (nil: none; see Worker.Fault): a panic at its TaskExec or
	// EngineStep site fails the run, as any panic in a task does.
	Fault *faultinject.Injector
}

// CheckpointPolicy is the unified checkpoint/resume configuration for an
// enumeration at any thread count. Zero-valued fields disable their
// mechanism; any combination may be active at once.
//
// Every snapshot is a task frontier. Serial runs cut one inline at
// stopping-rule checks: what is left of the one worker's task and the
// tasks not begun. Parallel runs take a round: every worker is interrupted
// at an engine step as a stop would, hands in what is left of its task and
// waits; the queue and the hand-ins are cut into a task-frontier snapshot;
// the hand-ins are queued and stolen again — the enumeration is never
// restarted. A frontier snapshot resumes at ANY thread count, with final
// counters exactly equal to an uninterrupted run's.
type CheckpointPolicy struct {
	// Interval snapshots to Sink on a wall-clock cadence — the survival
	// mechanism for hard crashes, where OnStop never gets to run. Serial runs
	// evaluate it at stopping-rule checks (a nanosecond: a snapshot at every
	// check); parallel runs on a ticker in the run's control loop.
	Interval time.Duration

	// OnStop captures the final state into Result.Checkpoint when the run
	// ends for any reason other than exhaustion or failure — cancellation
	// or a stopping rule.
	OnStop bool

	// Resume restores the enumeration from a checkpoint taken on the same
	// input (same constraint trees, same order — guarded by a fingerprint).
	// The initial tree and insertion heuristic come from the checkpoint;
	// the resumed run's counters continue from it, so its final counters
	// equal an uninterrupted run's exactly. Any thread count may consume
	// any snapshot.
	Resume *Checkpoint

	// Sink receives each periodic snapshot (typically persisted with
	// Checkpoint.WriteFile) on the goroutine that called Run, a pool's
	// workers already stealing again. The callback owns persistence and any
	// retry policy; the engines do no checkpoint file I/O themselves.
	Sink func(cp *Checkpoint)

	// Trigger, if non-nil, lets another goroutine request on-demand
	// snapshots from the running enumeration; see CheckpointTrigger.
	Trigger *CheckpointTrigger
}

// Result is the outcome of a run.
type Result struct {
	Counters
	Stop         StopReason
	Elapsed      time.Duration
	Trees        []string
	InitialIndex int
	// Steps is the run's length in transitions of the paper's machine
	// (insertions + removals, Work.Units), which inserts and removes the last
	// taxon too: a final frame of m branches counts 2m, though the engine
	// takes it in one step.
	Steps int64
	// Work is what the engine did for them (ExtendTaxon calls, bytes
	// rendered); Work.Units is Steps without the step that found nothing left.
	Work Work
	// Checkpoint holds the engine snapshot when Options.Checkpoint.OnStop
	// was set and a stopping rule or cancellation ended the run (nil when
	// the stand was exhausted: there is nothing left to resume).
	Checkpoint *Checkpoint
}

// serial is the host of Run's one Worker. It takes no offer, sums the
// batches — into the totals and the run's metrics, as a pool's scheduler
// does — and hands each block of trees to the run's sink.
type serial struct {
	total Counters
	m     *obs.SchedMetrics
	sink  func(block []byte, n int)
}

func (*serial) Offer([]PathStep, *Frame, int) int { return 0 }

func (h *serial) Publish(c Counters) {
	h.total.Add(c)
	h.m.Trees.Add(c.StandTrees)
	h.m.States.Add(c.IntermediateStates)
	h.m.DeadEnds.Add(c.DeadEnds)
}

func (h *serial) Trees(block []byte, n int) []byte {
	h.sink(block, n)
	return block
}

// serialPolicy offers nothing (Submit is 0 below MinRemaining remaining taxa)
// and fills no batch: frames keep all their branches, and the run flushes
// its worker at each check.
var serialPolicy = Policy{TreeBatch: math.MaxInt64, StateBatch: math.MaxInt64,
	DeadEndBatch: math.MaxInt64, MinRemaining: math.MaxInt}

// Start is the set-up of a run under opt (the package's Start), for either
// driver: it fills in the defaults — one thread, the paper's limits, a check
// every 1024 transitions — and builds the fixed insertion order
// DisableDynamicOrder asks for, refused beside any checkpointing, before it
// cuts the initial split into Threads shares.
func (opt *Options) Start(constraints []*tree.Tree) (*Setup, error) {
	opt.Threads = max(opt.Threads, 1)
	opt.Limits = opt.Limits.Normalize()
	if opt.CheckEvery <= 0 {
		opt.CheckEvery = 1024
	}
	ck := opt.Checkpoint
	var order func(missing []int) []int
	if opt.DisableDynamicOrder {
		if ck.Resume != nil || ck.OnStop || ck.Interval > 0 && ck.Sink != nil || ck.Trigger != nil {
			return nil, fmt.Errorf("search: checkpointing requires the dynamic insertion order")
		}
		order = func(missing []int) []int {
			o := slices.Clone(missing)
			if opt.ShuffleSeed != 0 {
				rand.New(rand.NewSource(opt.ShuffleSeed)).Shuffle(len(o), func(i, j int) { o[i], o[j] = o[j], o[i] })
			}
			return o
		}
	}
	return Start(constraints, opt.InitialTree, opt.Heuristic, order, ck.Resume, opt.Threads)
}

// Run enumerates the stand of the given constraint trees serially: the
// scheme's set-up (Start), then one Worker that takes the frontier's tasks
// in order — a fresh run has one, the whole initial split. It refuses a
// width above one and a Policy, which are a pool's. Incompatible constraint
// sets yield an empty stand (zero trees, reason StopExhausted), not an
// error. A panic in a task, the tree sink's included, fails the run with a
// *PanicError, as it fails a pool's.
func Run(constraints []*tree.Tree, opt Options) (res *Result, err error) {
	ck := opt.Checkpoint
	// However the run ends, refused included, unblock any trigger request
	// that raced the final poll (Finish is nil-safe and idempotent).
	defer ck.Trigger.Finish()
	switch {
	case opt.Threads > 1:
		return nil, fmt.Errorf("search: Run has one worker, not %d (parallel.Run)", opt.Threads)
	case opt.Policy != Policy{}:
		return nil, fmt.Errorf("search: Run's one worker takes no Policy")
	}
	start := time.Now()
	su, err := opt.Start(constraints)
	if err != nil {
		return nil, err
	}
	defer su.Release()
	res = &Result{Stop: StopExhausted, InitialIndex: su.InitialIndex}
	h := &serial{m: opt.Obs.SchedMetrics(), sink: TreeSink[[]byte](opt.CollectTrees, &res.Trees, opt.OnTree, opt.OnTrees)}
	h.Publish(su.Counters)
	if h.sink != nil && su.Tree != "" {
		h.sink(append([]byte(su.Tree), '\n'), 1)
	}
	est := opt.Obs.Estimator()
	est.AddCounters(su.Counters.StandTrees, su.Counters.IntermediateStates, su.Counters.DeadEnds)
	est.AddLeafMass(su.LeafMass, su.Leaves)
	// A fresh run's prefix is its first insertions: they count toward the
	// first check, and the paper's machine removes them again at the end.
	var prefix int64
	if !su.Resumed {
		prefix = int64(len(su.Frontier.Prefix))
	}
	tasks := su.Frontier.Tasks
	var w *Worker
	if len(tasks) > 0 {
		w = su.NewWorker(serialPolicy, h, est, h.sink != nil)
		w.Fault = opt.Fault
	}

	interval := ck.Interval > 0 && ck.Sink != nil
	units, next := prefix, int64(opt.CheckEvery)
	lastCkpt := start
	// snapshot is the frontier of a run at a check: what is left of the
	// worker's task, then the tasks not begun.
	snapshot := func(rest []FrontierTask) *Checkpoint {
		var left []FrontierTask
		if ft := w.Snapshot(); len(ft.Frames) > 0 {
			left = append(left, ft)
		}
		for i := range rest {
			left = append(left, rest[i].Clone())
		}
		return su.Checkpoint(h.total, 1, left)
	}
	// check is the stopping-rule check, every CheckEvery units and between
	// two tasks: it reports whether the run stops there.
	check := func(rest []FrontierTask) bool {
		// The counters are about to be read, by the caller's OnCheck, by a
		// snapshot or by a stopping rule: the worker's batch, trees first, goes
		// to the totals.
		w.Flush()
		next = units + int64(opt.CheckEvery)
		if opt.OnCheck != nil {
			opt.OnCheck(h.total, time.Since(start))
		}
		if interval && time.Since(lastCkpt) >= ck.Interval {
			ck.Sink(snapshot(rest))
			lastCkpt = time.Now()
		}
		select {
		case reply := <-ck.Trigger.Requests():
			reply <- snapshot(rest)
		default:
		}
		if reason, hit := opt.Limits.Exceeded(h.total, time.Since(start)); hit {
			res.Stop = reason
		} else if opt.Ctx != nil && opt.Ctx.Err() != nil {
			res.Stop = StopCancelled
		}
		if res.Stop != StopExhausted && ck.OnStop {
			res.Checkpoint = snapshot(rest)
		}
		return res.Stop != StopExhausted
	}

	// The task boundary: a panic from here on fails the run, before the
	// deferred Release hands the wrecked Terrace back with the rest.
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
run:
	for i := range tasks {
		if i > 0 && check(tasks[i:]) {
			break
		}
		if err := w.Begin(tasks[i]); err != nil {
			return nil, err
		}
		for ph, cost := Replay, int64(0); ph != Idle; {
			if ph, cost = w.Tick(next - units); ph == Explore {
				if units += cost; units >= next && check(tasks[i+1:]) {
					break run
				}
			}
		}
	}
	res.Counters = h.total
	if w != nil {
		res.Work = w.Work()
	}
	res.Work.Units += prefix
	res.Work.Extends += prefix
	res.Steps = res.Work.Units
	if res.Stop == StopExhausted {
		res.Work.Units += prefix
		res.Steps = res.Work.Units + 1 // the step that found nothing left
	}
	res.Elapsed = time.Since(start)
	return res, nil
}
