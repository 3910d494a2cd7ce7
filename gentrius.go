// Package gentrius enumerates phylogenetic stands: the sets of binary
// unrooted trees on a full taxon set that display every tree in a collection
// of incomplete, unrooted constraint trees. It is a from-scratch Go
// implementation of the Gentrius branch-and-bound algorithm (Chernomor et
// al.) and of its shared-memory parallelization with thread pooling and work
// stealing (Togkousidis, Chernomor & Stamatakis, IPPS 2023).
//
// Typical use:
//
//	taxa := gentrius.MustTaxa([]string{"A", "B", "C", "D", "E"})
//	c1 := gentrius.MustParseTree("((A,B),(C,D));", taxa)
//	c2 := gentrius.MustParseTree("((A,B),(C,E));", taxa)
//	res, err := gentrius.EnumerateStand([]*gentrius.Tree{c1, c2},
//	    gentrius.DefaultOptions())
//
// Or, starting from a complete species tree and a presence–absence matrix:
//
//	res, err := gentrius.EnumerateFromSpeciesTree(species, pam, opt)
//
// Setting Options.Threads above 1 runs the parallel engine; the three
// stopping rules (stand trees, intermediate states, wall time) bound runs on
// stands of intractable size.
//
// Long-running enumerations are cancellable and resumable: the Context
// variants (EnumerateStandContext, EnumerateFromSpeciesTreeContext) stop
// with StopCancelled when the context is done, and runs at ANY thread count
// can checkpoint — on stop, periodically, or on demand — and resume later
// at any other thread count (Options.Checkpoint; see CheckpointPolicy).
// The non-context entrypoints are one-line wrappers over the context ones.
package gentrius

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"gentrius/internal/faultinject"
	"gentrius/internal/obs"
	"gentrius/internal/pam"
	"gentrius/internal/parallel"
	"gentrius/internal/search"
	"gentrius/internal/tree"
)

// Tree is an unrooted binary phylogenetic tree over a shared Taxa universe.
type Tree = tree.Tree

// Taxa is the taxon-label universe all trees and matrices of one analysis
// refer to.
type Taxa = tree.Taxa

// PAM is a presence–absence species × locus matrix.
type PAM = pam.Matrix

// StopReason reports why an enumeration ended.
type StopReason = search.StopReason

// Stop reasons (re-exported from the search engine).
const (
	StopExhausted  = search.StopExhausted
	StopTreeLimit  = search.StopTreeLimit
	StopStateLimit = search.StopStateLimit
	StopTimeLimit  = search.StopTimeLimit
	// StopCancelled reports that the caller's context ended the run. The
	// engines poll the context at their periodic stopping-rule check, so
	// cancellation takes effect within one check interval.
	StopCancelled = search.StopCancelled
	// StopFailed reports that a task panicked — in the engine, at an
	// injected fault site, or in OnTree or OnTrees — at any thread count: the
	// run stops, and the entrypoint returns no Result, no checkpoint and an
	// error that carries the panic value and its stack. The only retry is a
	// resume from a snapshot taken before (CheckpointPolicy.Interval or
	// Trigger).
	StopFailed = search.StopFailed
)

// Typed checkpoint-load failures, re-exported so callers can branch with
// errors.Is and give actionable resume diagnostics.
var (
	// ErrChecksum: the checkpoint file is torn or corrupted (CRC mismatch).
	ErrChecksum = search.ErrChecksum
	// ErrVersion: the checkpoint was written by an incompatible version.
	ErrVersion = search.ErrVersion
	// ErrFingerprint: the checkpoint belongs to different input files (or
	// the same files in a different order).
	ErrFingerprint = search.ErrFingerprint
)

// FaultInjector is the deterministic, seeded fault-injection registry from
// internal/faultinject, re-exported so operators and failure tests can aim
// reproducible panics, I/O errors and stalls at the engine's hook points
// (see Options.Fault and the GENTRIUS_FAULTS spec accepted by the daemon).
type FaultInjector = faultinject.Injector

// ParseFaults builds a FaultInjector from the compact spec syntax, e.g.
// "seed=42;taskexec.every=50;spoolwrite.nth=3". An empty spec yields nil
// (no faults).
func ParseFaults(spec string) (*FaultInjector, error) { return faultinject.Parse(spec) }

// Checkpoint is a serializable snapshot of an enumeration: the task
// frontier — queued plus in-flight task snapshots — of a run at a consistent
// cut (payload version 2, the one form written and read), whatever its
// thread count. A version-1 file (an older release's serial
// branch-and-bound stack) fails to load with ErrVersion: finish its run
// with that release, or rerun. Together with the *same* input (same
// constraint trees, same order — guarded by a fingerprint) a checkpoint
// resumes the run exactly where it stopped, at ANY thread count: a snapshot taken at four threads can resume at one or
// eight, with final counters equal to an uninterrupted run's. See
// Options.Checkpoint and CheckpointPolicy.
type Checkpoint = search.Checkpoint

// CheckpointTrigger requests an on-demand snapshot from a running
// enumeration without stopping it: place one in CheckpointPolicy.Trigger,
// then call Request from another goroutine. Serial runs service the request
// at the next stopping-rule check; parallel runs interrupt the pool at an
// engine step, snapshot the frontier, and resume from it in place. A trigger
// is single-run.
type CheckpointTrigger = search.CheckpointTrigger

// NewCheckpointTrigger returns a trigger ready to be placed in
// CheckpointPolicy.Trigger and shared with the requesting goroutine.
func NewCheckpointTrigger() *CheckpointTrigger { return search.NewCheckpointTrigger() }

// ErrRunEnded is returned by CheckpointTrigger.Request when the run
// finished before the snapshot request could be serviced.
var ErrRunEnded = search.ErrRunEnded

// ReadCheckpoint parses a checkpoint previously written with
// Checkpoint.Write (the checksummed envelope).
func ReadCheckpoint(r io.Reader) (*Checkpoint, error) {
	return search.ReadCheckpoint(r)
}

// ReadCheckpointFile loads a checkpoint persisted with Checkpoint.WriteFile,
// falling back to the ".bak" rotation when the primary file is torn or
// missing. Failures wrap the typed errors (ErrChecksum, ErrVersion) for
// errors.Is.
func ReadCheckpointFile(path string) (*Checkpoint, error) {
	return search.ReadCheckpointFile(path)
}

// UseInitialTreeHeuristic selects the initial agile tree by the paper's
// heuristic (the constraint sharing the most taxa with all others).
const UseInitialTreeHeuristic = -1

// OrderHeuristic selects the dynamic taxon-insertion heuristic; see the
// re-exported values below. The zero value is the paper's rule.
type OrderHeuristic = search.OrderHeuristic

// Insertion-order heuristics (the alternatives implement the paper's
// future-work direction of exploring different insertion orders).
const (
	OrderMinBranches          = search.OrderMinBranches
	OrderMinBranchesTieDegree = search.OrderMinBranchesTieDegree
	OrderMaxBranches          = search.OrderMaxBranches
)

// Options configures an enumeration.
type Options struct {
	// Threads is the worker count; values above 1 select the parallel
	// work-stealing engine.
	Threads int

	// The three stopping rules (Sec. II-B of the paper). Zero values select
	// the paper defaults (10^6 trees, 10^7 intermediate states, 168 h);
	// negative values disable a rule.
	MaxTrees  int64
	MaxStates int64
	MaxTime   time.Duration

	// InitialTree is the index of the constraint tree used as the initial
	// agile tree, or UseInitialTreeHeuristic (-1).
	InitialTree int

	// Heuristic refines the dynamic taxon-insertion order (zero value: the
	// paper's min-branches rule). Any heuristic yields the same stand; only
	// the amount of search work differs.
	Heuristic OrderHeuristic

	// CollectTrees stores each stand tree's canonical Newick string in
	// Result.Trees. Stands can be enormous; prefer OnTree for streaming.
	CollectTrees bool

	// OnTree, if non-nil, receives every stand tree as a string, one call per
	// tree, with any number of threads. The strings arrive a block at a time
	// (see OnTrees): each block is converted to one string and the trees are
	// cut from it, so a string the callback retains keeps its whole block (up
	// to 32 KiB) alive. With Threads == 1 the callback runs inline in the
	// search loop, in enumeration order; with Threads > 1 blocks stream from
	// the workers through a bounded channel to a single collector goroutine,
	// so calls are serialized but arrive in no particular order,
	// concurrently with the enumeration. A slow callback applies
	// backpressure to the workers instead of growing a buffer: with
	// CollectTrees false no whole-stand tree storage is allocated.
	OnTree func(newick string)

	// OnTrees, if non-nil, receives the stand as bytes, in blocks: n
	// canonical Newick strings, each newline-terminated, in a slice that is
	// valid only during the call — ready to be written to a file or a socket
	// as they are, with no string allocated. A block of up to 32 KiB is
	// handed on when it is full, whenever the counters that count its trees
	// are published or cut (so a checkpoint never counts a tree that has
	// not been delivered), at the end of the run, and alone for the first
	// tree. Calls are serialized; with Threads == 1 the trees are in
	// enumeration order, with Threads > 1 in no particular order. Both
	// callbacks may be set; each then sees every tree.
	OnTrees func(newicks []byte, n int)

	// Checkpoint bundles all checkpoint/resume configuration — periodic and
	// on-stop snapshots, on-demand triggers, and resuming — for any thread
	// count. Nil disables checkpointing.
	Checkpoint *CheckpointPolicy

	// Obs attaches the observability layer (see internal/obs). At any
	// thread count the search counters go to its Metrics and the
	// fraction-complete measure to its Estimate; a serial run emits no trace
	// events, a parallel one also exports its queue and per-worker metrics
	// and traces its scheduler to Trace. Nil disables it entirely; the
	// disabled hot path costs one branch per instrument.
	Obs *ObsSink

	// Fault attaches deterministic fault injection for failure testing
	// (nil: no faults, zero overhead beyond one branch per hook). Every run,
	// at any thread count, honours the treestream stall site, once per tree
	// handed to OnTrees (else OnTree), and the taskexec and enginestep panic
	// sites, which fail the run (StopFailed).
	Fault *FaultInjector
}

// CheckpointPolicy is the unified checkpoint/resume configuration for an
// enumeration at any thread count: periodic snapshots (Interval) to a Sink,
// a final snapshot OnStop, on-demand snapshots through a Trigger, and
// Resume. Zero-valued fields disable their mechanism; any combination may be
// active at once. Both engines consume it as is.
type CheckpointPolicy = search.CheckpointPolicy

// ObsSink bundles an optional metric set and trace recorder for a run —
// the front-end-facing alias of internal/obs.Sink.
type ObsSink = obs.Sink

// DefaultOptions returns serial enumeration with the paper's default
// stopping rules and the initial-tree heuristic.
func DefaultOptions() Options {
	return Options{Threads: 1, InitialTree: UseInitialTreeHeuristic}
}

// Result summarizes an enumeration.
type Result struct {
	// StandTrees is the number of stand trees counted (the full stand size
	// when Stop == StopExhausted, a lower bound otherwise).
	StandTrees int64
	// IntermediateStates and DeadEnds describe the branch-and-bound work.
	IntermediateStates int64
	DeadEnds           int64
	// Stop reports which stopping rule ended the run, if any.
	Stop StopReason
	// Elapsed is the wall-clock duration.
	Elapsed time.Duration
	// Trees holds the stand (canonical Newick) when CollectTrees was set.
	Trees []string
	// InitialIndex is the constraint index used as the initial agile tree.
	InitialIndex int
	// Threads is the worker count actually used.
	Threads int
	// TasksStolen counts work-stealing task handoffs (parallel runs).
	TasksStolen int64
	// PerWorker is each worker's counter contribution (parallel runs;
	// nil for serial). The sum of PerWorker plus the coordinator's
	// deterministic-prefix work equals the run totals.
	PerWorker []WorkerCounters
	// Checkpoint is the resumable snapshot of a run — at any thread count —
	// that requested CheckpointPolicy.OnStop and was cancelled or hit a
	// stopping rule (nil when the stand was exhausted or the run failed).
	Checkpoint *Checkpoint
}

// WorkerCounters is one worker's share of the branch-and-bound work.
type WorkerCounters struct {
	StandTrees         int64
	IntermediateStates int64
	DeadEnds           int64
}

// Complete reports whether the whole stand was enumerated.
func (r *Result) Complete() bool { return r.Stop == StopExhausted }

// engineOptions translates the public Options into the engines' one options
// type — the single place where the public and internal configuration
// vocabularies meet. The thread count selects the engine that consumes it.
func engineOptions(ctx context.Context, opt Options) search.Options {
	eo := search.Options{
		Ctx:     ctx,
		Threads: opt.Threads,
		Limits: search.Limits{
			MaxTrees:  opt.MaxTrees,
			MaxStates: opt.MaxStates,
			MaxTime:   opt.MaxTime,
		},
		InitialTree:  opt.InitialTree,
		Heuristic:    opt.Heuristic,
		CollectTrees: opt.CollectTrees,
		OnTree:       opt.OnTree,
		OnTrees:      opt.OnTrees,
		Obs:          opt.Obs,
		Fault:        opt.Fault,
	}
	if opt.Checkpoint != nil {
		eo.Checkpoint = *opt.Checkpoint
	}
	return eo
}

// EnumerateStand counts (and optionally collects) all trees compatible with
// the given constraint trees. It is EnumerateStandContext without
// cancellation.
func EnumerateStand(constraints []*Tree, opt Options) (*Result, error) {
	return EnumerateStandContext(context.Background(), constraints, opt)
}

// EnumerateStandContext is the context-aware enumeration entrypoint: the
// run ends with Stop == StopCancelled (not an error) within one
// stopping-rule check interval of ctx being done. Every taxon of the
// universe must occur in at least one constraint tree, and every constraint
// tree needs at least four taxa. Pairwise-incompatible constraints yield an
// empty stand.
func EnumerateStandContext(ctx context.Context, constraints []*Tree, opt Options) (*Result, error) {
	if len(constraints) == 0 {
		return nil, fmt.Errorf("gentrius: no constraint trees")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if f := opt.Fault; f != nil {
		// The treestream site stalls each tree once, on its way to the caller.
		if onTrees := opt.OnTrees; onTrees != nil {
			opt.OnTrees = func(block []byte, n int) {
				f.StallEach(faultinject.TreeStream, n)
				onTrees(block, n)
			}
		} else if onTree := opt.OnTree; onTree != nil {
			opt.OnTree = func(nw string) {
				f.Stall(faultinject.TreeStream)
				onTree(nw)
			}
		}
	}
	res, err := enumerate(constraints, engineOptions(ctx, opt))
	// Both hosts fail a panicking run with the one error: count it here, once.
	if pe := (*search.PanicError)(nil); errors.As(err, &pe) {
		opt.Obs.SchedMetrics().WorkerPanics.Inc()
	}
	return res, err
}

// enumerate runs the engine the thread count selects — search.Run at one
// thread, the pool above — and converts its one result type.
func enumerate(constraints []*Tree, eo search.Options) (*Result, error) {
	run := parallel.Run
	if eo.Threads <= 1 {
		run = search.Run
	}
	r, err := run(constraints, eo)
	if err != nil {
		return nil, err
	}
	res := &Result{
		StandTrees:         r.StandTrees,
		IntermediateStates: r.IntermediateStates,
		DeadEnds:           r.DeadEnds,
		Stop:               r.Stop,
		Elapsed:            r.Elapsed,
		Trees:              r.Trees,
		InitialIndex:       r.InitialIndex,
		Threads:            max(eo.Threads, 1),
		TasksStolen:        r.TasksStolen,
		Checkpoint:         r.Checkpoint,
	}
	for _, wc := range r.PerWorker {
		res.PerWorker = append(res.PerWorker, WorkerCounters(wc))
	}
	return res, nil
}

// EnumerateFromSpeciesTree is Gentrius' second input mode: a complete
// species tree plus a PAM. It is EnumerateFromSpeciesTreeContext without
// cancellation.
func EnumerateFromSpeciesTree(species *Tree, m *PAM, opt Options) (*Result, error) {
	return EnumerateFromSpeciesTreeContext(context.Background(), species, m, opt)
}

// EnumerateFromSpeciesTreeContext enumerates from a complete species tree
// plus a PAM under a cancellation context. The per-locus constraint trees
// are the species tree's induced subtrees on each locus' presence set (loci
// covering fewer than four taxa are skipped, as they constrain nothing).
func EnumerateFromSpeciesTreeContext(ctx context.Context, species *Tree, m *PAM, opt Options) (*Result, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	cons, err := m.InducedConstraints(species, 4)
	if err != nil {
		return nil, err
	}
	if len(cons) == 0 {
		return nil, fmt.Errorf("gentrius: no locus covers four or more taxa")
	}
	return EnumerateStandContext(ctx, cons, opt)
}
