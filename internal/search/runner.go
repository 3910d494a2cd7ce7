package search

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"gentrius/internal/obs"
	"gentrius/internal/terrace"
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
	StopFailed                       // the run died (e.g. a worker panic exhausted its retry budget)
)

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

// Options configures a run.
type Options struct {
	Limits Limits

	// InitialTree selects the initial agile tree: a constraint index, or a
	// negative value to apply the paper's selection heuristic.
	InitialTree int

	// Heuristic refines the dynamic taxon selection (zero value: the
	// paper's min-branches rule); see OrderHeuristic.
	Heuristic OrderHeuristic

	// DisableDynamicOrder replaces the fewest-branches taxon selection with
	// a fixed insertion order: ShuffleSeed shuffles the missing-taxon list
	// (the paper's second ablation); with ShuffleSeed == 0 the order is
	// ascending taxon id.
	DisableDynamicOrder bool
	ShuffleSeed         int64

	// CollectTrees stores every stand tree's canonical Newick string in
	// Result.Trees. Off by default: stands can be enormous.
	CollectTrees bool
	// OnTree, if set, receives every stand tree found, in enumeration order,
	// a block at a time (see OnTrees): the strings are cut from one string per
	// block.
	OnTree func(newick string)
	// OnTrees, if set, receives the stand in blocks: n canonical Newick
	// strings in enumeration order, each newline-terminated, in bytes that
	// are valid only during the call. A block is handed on at BlockSize, at
	// every stopping-rule check (so before any snapshot) and at the end of
	// the run, and the run's first tree alone, whichever of the three forms
	// are asked for (TreeSink).
	OnTrees func(newicks []byte, n int)

	// CheckEvery is the interval between stopping-rule evaluations, in
	// transitions of the paper's machine (Work.Units; default 1024; time is
	// only sampled at these checks). A final frame is not divided, so a
	// check can come up to one frame late.
	CheckEvery int

	// OnCheck, if set, receives the live counters at every stopping-rule
	// check (every CheckEvery steps) — the serial engine's progress hook.
	OnCheck func(c Counters, elapsed time.Duration)

	// Estimator, if set, accumulates the weighted backtrack fraction-
	// complete measure: every closed leaf's random-descent probability is
	// added as the engine backtracks, and the live counters are merged at
	// every stopping-rule check. A resumed run seeds the estimator with the
	// mass already consumed before the checkpoint, so its fraction matches
	// an uninterrupted run's.
	Estimator *obs.Estimator

	// Ctx cancels the run. It is polled only at the periodic stopping-rule
	// check (the hot loop stays branch-cheap), so cancellation latency is
	// bounded by one CheckEvery interval and one final frame. A cancelled run
	// returns normally with Stop == StopCancelled; the context's error is not
	// propagated.
	Ctx context.Context

	// Checkpoint configures snapshots and resuming (see CheckpointPolicy).
	// A serial run snapshots inline at its stopping-rule checks and resumes
	// version-1 checkpoints only. Checkpointing requires the dynamic
	// insertion order (the default): checkpoints record no static Order.
	Checkpoint CheckpointPolicy
}

// CheckpointPolicy is the unified checkpoint/resume configuration for an
// enumeration at any thread count. Zero-valued fields disable their
// mechanism; any combination may be active at once.
//
// Serial runs snapshot inline at stopping-rule checks. Parallel runs take a
// round: every worker is interrupted at an engine step as a stop would, hands
// in what is left of its task and waits; the queue and the hand-ins are cut
// into a task-frontier snapshot; the hand-ins are queued and stolen again —
// the enumeration is never restarted. A frontier snapshot resumes at ANY
// thread count, with final counters exactly equal to an uninterrupted
// run's.
type CheckpointPolicy struct {
	// Every snapshots to Sink every this many stopping-rule checks of a
	// serial run — the survival mechanism for hard crashes, where OnStop
	// never gets to run. Parallel runs have no per-check cadence; Every > 0
	// with Interval == 0 means a one-second Interval there.
	Every int

	// Interval snapshots to Sink on a wall-clock cadence — the knob that
	// works at every thread count. Serial runs evaluate it at stopping-rule
	// checks; parallel runs on a ticker in the run's control loop.
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
	// any snapshot: serial (version-1) snapshots resume parallel, and
	// frontier (version-2) snapshots resume at one thread through the
	// parallel engine with one worker.
	Resume *Checkpoint

	// Sink receives each periodic snapshot (typically persisted with
	// Checkpoint.WriteFile). The callback owns persistence and any retry
	// policy; the engines do no checkpoint file I/O themselves.
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

// Run enumerates the stand of the given constraint trees serially.
// Incompatible constraint sets yield an empty stand (zero trees, reason
// StopExhausted), not an error.
func Run(constraints []*tree.Tree, opt Options) (*Result, error) {
	opt.Limits = opt.Limits.Normalize()
	if opt.CheckEvery <= 0 {
		opt.CheckEvery = 1024
	}
	ck := opt.Checkpoint
	// However the run ends, refused included, unblock any trigger request
	// that raced the final poll (Finish is nil-safe and idempotent).
	defer ck.Trigger.Finish()
	periodic := ck.Every > 0 && ck.Sink != nil
	interval := ck.Interval > 0 && ck.Sink != nil
	checkpointing := ck.Resume != nil || ck.OnStop || periodic || interval || ck.Trigger != nil
	if checkpointing && opt.DisableDynamicOrder {
		return nil, fmt.Errorf("search: checkpointing requires the dynamic insertion order")
	}
	res := &Result{Stop: StopExhausted}
	start := time.Now()

	var eng *Engine
	if ck.Resume != nil {
		e, err := Restore(ck.Resume, constraints)
		if err != nil {
			return nil, err
		}
		eng = e
		res.InitialIndex = ck.Resume.InitialIndex
	} else {
		idx, err := resolveInitial(constraints, opt.InitialTree)
		if err != nil {
			return nil, err
		}
		res.InitialIndex = idx

		t, err := terrace.New(constraints, idx)
		if err != nil {
			if errors.Is(err, terrace.ErrIncompatible) {
				res.Elapsed = time.Since(start)
				return res, nil
			}
			return nil, err
		}
		eng = NewEngine(t)
		eng.Heuristic = opt.Heuristic
		if opt.DisableDynamicOrder {
			eng.DynamicOrder = false
			eng.Order = append([]int(nil), t.MissingTaxa()...)
			if opt.ShuffleSeed != 0 {
				rng := rand.New(rand.NewSource(opt.ShuffleSeed))
				rng.Shuffle(len(eng.Order), func(i, j int) {
					eng.Order[i], eng.Order[j] = eng.Order[j], eng.Order[i]
				})
			}
		}
	}
	// Nothing outlives the run that reads its one Terrace, which has no clones.
	defer eng.T.Release()
	est := opt.Estimator
	var estPrev Counters // counters already merged into the estimator
	if est != nil {
		eng.OnLeaf = est.AddLeafMass
		if ck.Resume != nil && ck.Resume.Started {
			// Seed with the interrupted run's consumed mass and counters
			// (Restore validated the view, so it cannot fail here); a
			// snapshot from before the first step has consumed nothing.
			fr, _ := ck.Resume.FrontierView()
			cpc := ck.Resume.Counters
			est.AddLeafMass(1-fr.RemainingMass(), cpc.StandTrees+cpc.DeadEnds)
			est.AddCounters(cpc.StandTrees, cpc.IntermediateStates, cpc.DeadEnds)
			estPrev = cpc
		}
	}
	flushEst := func(c Counters) {
		if est == nil {
			return
		}
		est.AddCounters(c.StandTrees-estPrev.StandTrees,
			c.IntermediateStates-estPrev.IntermediateStates,
			c.DeadEnds-estPrev.DeadEnds)
		estPrev = c
	}

	if sink := TreeSink[[]byte](opt.CollectTrees, &res.Trees, opt.OnTree, opt.OnTrees); sink != nil {
		eng.OnTrees = func(block []byte, n int) []byte {
			sink(block, n)
			return block
		}
	}

	checks := 0
	lastCkpt := start
	for {
		for next := eng.work.Units + int64(opt.CheckEvery); eng.work.Units < next; {
			if eng.Step() == EvDone {
				eng.FlushTrees()
				res.Counters = eng.Counters()
				res.Work = eng.Work()
				res.Steps = res.Work.Units + 1 // the step that found nothing left
				res.Elapsed = time.Since(start)
				flushEst(res.Counters)
				return res, nil
			}
		}
		res.Work = eng.Work()
		res.Steps = res.Work.Units
		// The counters are about to be read, by the caller's OnCheck, by a
		// snapshot or by a stopping rule: their trees go first.
		eng.FlushTrees()
		res.Counters = eng.Counters()
		flushEst(res.Counters)
		if opt.OnCheck != nil {
			opt.OnCheck(res.Counters, time.Since(start))
		}
		if periodic {
			if checks++; checks%ck.Every == 0 {
				ck.Sink(eng.Snapshot(constraints, res.InitialIndex))
			}
		}
		if interval && time.Since(lastCkpt) >= ck.Interval {
			ck.Sink(eng.Snapshot(constraints, res.InitialIndex))
			lastCkpt = time.Now()
		}
		select {
		case reply := <-ck.Trigger.Requests():
			reply <- eng.Snapshot(constraints, res.InitialIndex)
		default:
		}
		if reason, hit := opt.Limits.Exceeded(res.Counters, time.Since(start)); hit {
			res.Stop = reason
		} else if opt.Ctx != nil && opt.Ctx.Err() != nil {
			res.Stop = StopCancelled
		}
		if res.Stop != StopExhausted {
			if ck.OnStop {
				res.Checkpoint = eng.Snapshot(constraints, res.InitialIndex)
			}
			res.Elapsed = time.Since(start)
			return res, nil
		}
	}
}
