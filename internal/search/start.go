package search

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"gentrius/internal/terrace"
	"gentrius/internal/tree"
)

// Setup is the state every parallel driver of the scheme starts from — the
// goroutine pool, the virtual-time simulator and the fleet coordinator: the
// initial tree, the deterministic prefix to the initial split I_0, what has
// been counted so far, and the outstanding work as a task frontier.
type Setup struct {
	// InitialIndex and Heuristic are the effective initial agile tree and
	// insertion-order heuristic (a resumed run takes both from the
	// checkpoint).
	InitialIndex int
	Heuristic    OrderHeuristic

	// Counters is the work already tallied: the prefix walk's on a fresh
	// run, the checkpoint's totals on a resumed one. A driver seeds its
	// global counters with it, so totals == Counters + the workers' share.
	Counters Counters

	// LeafMass and Leaves seed the weighted backtrack estimator with the
	// part of the search space already closed: nothing on a fresh run (all
	// of it when the prefix was terminal), one minus the frontier's
	// remaining mass on a resumed one.
	LeafMass float64
	Leaves   int64

	// Tree is the single stand tree of a run whose prefix completed the
	// tree ("" otherwise); it is counted in Counters.
	Tree string

	// Frontier carries the prefix path and the outstanding tasks. No tasks
	// means there is nothing to run: an empty stand (incompatible
	// constraints), a terminal prefix, or a drained checkpoint. A fresh
	// run's tasks are the initial split cut into contiguous shares, in
	// order; a resumed run's are the checkpoint's non-empty tasks.
	Frontier *Frontier

	// Resumed tells the simulator, which starts a fresh run's workers on a
	// share each as the paper does, that the tasks are restored work to queue.
	Resumed bool

	constraints []*tree.Tree

	// proto is the Terrace at I_0 that NewTerrace clones: the run's one
	// Terrace built from the constraints, which Start walked there, until the
	// first worker takes that for its own; then none, until a second Terrace
	// is asked for. Nil, too, when the constraints are incompatible.
	proto *terrace.Terrace
	first *Worker

	mu     sync.Mutex
	handed []*terrace.Terrace // every Terrace NewTerrace handed out, for Release
}

// Start performs the run set-up shared by every driver. A fresh run
// (resume == nil) resolves initialTree (a constraint index, or negative for
// the paper's heuristic), builds the Terrace, walks the forced insertions
// and cuts the initial split into at most n tasks (n <= 0: one task per
// branch). A resumed run validates the checkpoint against the constraints —
// its prefix path step by step as it is walked — and views it as a frontier —
// a version-1 serial snapshot becomes one task — so any snapshot resumes onto
// any driver and width; initialTree, h and n are then ignored. Its tasks are
// validated the same way, since workers replay those blindly. A serial
// snapshot taken before the first step has no frontier form: it resumes as a
// fresh run on the checkpoint's initial tree and heuristic. Either way
// terrace.New runs once and the prefix is walked once, here, on that Terrace.
func Start(constraints []*tree.Tree, initialTree int, h OrderHeuristic, resume *Checkpoint, n int) (*Setup, error) {
	if resume != nil {
		if err := resume.Validate(constraints); err != nil {
			return nil, err
		}
		if resume.unstarted() {
			initialTree, h, resume = resume.InitialIndex, resume.Heuristic, nil
		}
	}
	if resume != nil {
		fr, err := resume.FrontierView()
		if err != nil {
			return nil, err
		}
		// The checkpoint's counters already include the prefix contribution,
		// and its stored prefix path is replayed without recounting.
		s := &Setup{
			InitialIndex: resume.InitialIndex,
			Heuristic:    resume.Heuristic,
			Counters:     resume.Counters,
			LeafMass:     1 - fr.RemainingMass(),
			Leaves:       resume.Counters.StandTrees + resume.Counters.DeadEnds,
			Frontier:     &Frontier{Prefix: fr.Prefix, Threads: fr.Threads},
			Resumed:      true,
			constraints:  constraints,
		}
		for _, ft := range fr.Tasks {
			if len(ft.Frames) > 0 { // else a drained engine: nothing left in it
				s.Frontier.Tasks = append(s.Frontier.Tasks, ft)
			}
		}
		if s.proto, err = terrace.New(constraints, s.InitialIndex); err != nil {
			return nil, fmt.Errorf("search: resuming: %w", err)
		}
		t := s.proto
		if err := walk(t, fr.Prefix, nil); err != nil {
			return nil, fmt.Errorf("search: checkpoint prefix %w", err)
		}
		for i, ft := range s.Frontier.Tasks {
			if err := walk(t, ft.Path, ft.Frames); err != nil {
				return nil, fmt.Errorf("search: checkpoint task %d %w", i, err)
			}
			for t.Depth() > len(fr.Prefix) {
				t.RemoveTaxon()
			}
		}
		return s, nil
	}

	idx, err := resolveInitial(constraints, initialTree)
	if err != nil {
		return nil, err
	}
	s := &Setup{InitialIndex: idx, Heuristic: h, Frontier: &Frontier{}, constraints: constraints}
	s.proto, err = terrace.New(constraints, idx)
	if err != nil {
		if errors.Is(err, terrace.ErrIncompatible) {
			return s, nil // empty stand
		}
		return nil, err
	}
	t := s.proto
	pre := PrefixWalkH(t, h)
	s.Counters = pre.Counters
	s.Frontier.Prefix = pre.Path
	if pre.Terminal {
		// The prefix closed the whole space: one leaf (a single stand tree
		// or a dead end) carrying the entire mass.
		s.LeafMass, s.Leaves = 1, 1
		if pre.Counters.StandTrees == 1 {
			s.Tree = t.Agile().Newick()
		}
		return s, nil
	}
	k := len(pre.SplitBranches)
	if n <= 0 || n > k {
		n = k
	}
	for _, share := range PartitionBranches(pre.SplitBranches, n) {
		s.Frontier.Tasks = append(s.Frontier.Tasks,
			NewSeedTask(nil, pre.SplitTaxon, share, 1/float64(k)))
	}
	return s, nil
}

// resolveInitial turns the initial-tree option into a constraint index:
// negative applies the paper's selection heuristic.
func resolveInitial(constraints []*tree.Tree, idx int) (int, error) {
	if idx < 0 {
		idx = ChooseInitialTree(constraints)
	}
	if idx >= len(constraints) {
		return 0, fmt.Errorf("search: initial tree index %d out of range", idx)
	}
	return idx, nil
}

// walk extends t the way a worker will extend its Terrace for a checkpoint's
// path and frame stack — along the path, then through the frames from the
// bottom, each inserted frame by the branch it was at — refusing the first
// insertion a run could not have made: a taxon that is not still pending or
// an edge that is not among its admissible branches there. (ExtendTaxon
// trusts its caller and would index out of range or corrupt the mappings
// instead.) The frames' index ranges were validated with the frontier view.
func walk(t *terrace.Terrace, path []PathStep, frames []FrameSnapshot) error {
	check := func(taxon int, edges ...int32) error {
		if taxon < 0 || taxon >= t.Taxa().Len() || t.Agile().HasTaxon(taxon) {
			return fmt.Errorf("taxon %d is not pending", taxon)
		}
		allowed := t.AllowedBranches(taxon)
		for _, e := range edges {
			if !slices.Contains(allowed, e) {
				return fmt.Errorf("edge %d is not admissible for taxon %d", e, taxon)
			}
		}
		return nil
	}
	for i, st := range path {
		if err := check(st.Taxon, st.Edge); err != nil {
			return fmt.Errorf("step %d: %w", i, err)
		}
		t.ExtendTaxon(st.Taxon, st.Edge)
	}
	for i, f := range frames {
		if err := check(f.Taxon, f.Branches...); err != nil {
			return fmt.Errorf("frame %d: %w", i, err)
		}
		if f.Inserted {
			t.ExtendTaxon(f.Taxon, f.Branches[f.Idx-1])
		}
	}
	return nil
}

// NewTerrace returns a private Terrace positioned at I_0 — each worker's own
// copy of the search state (paper Sec. III-A), and what a worker replaces
// its old one with after a recovered panic left that mid-mutation: a clone
// of the prototype, state for state terrace.New and a replay of the prefix.
// While the first worker has the prototype (NewWorker) the call makes the
// next first — a copy of that worker's Terrace, rewound, so the call belongs
// between its Ticks, on its goroutine; from the constraints, if a panic in a
// Tick wrecked it — and after that any number of goroutines may call. Every
// Terrace it hands out is the Setup's to release (Release).
func (s *Setup) NewTerrace() *terrace.Terrace {
	if s.proto == nil && !s.first.busy {
		s.proto = s.first.t.Clone()
		for s.proto.Depth() > s.first.base {
			s.proto.RemoveTaxon()
		}
	} else if s.proto == nil {
		s.proto, _ = terrace.New(s.constraints, s.InitialIndex) // as Start did: no error
		for _, st := range s.Frontier.Prefix {
			s.proto.ExtendTaxon(st.Taxon, st.Edge)
		}
	}
	t := s.proto.Clone()
	s.mu.Lock()
	s.handed = append(s.handed, t)
	s.mu.Unlock()
	return t
}

// Release hands the storage of every Terrace of the run to the next
// terrace.New or Clone (terrace.Terrace.Release): those NewTerrace handed
// out, the prototype, and the one Start built. The clones share the LCA
// indexes of the Terraces built from the constraints, so call it at the
// driver's exit, once the workers, and their Terraces with them, are gone.
// The one Start built goes last, so the next run's New takes its storage.
func (s *Setup) Release() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, t := range s.handed {
		t.Release()
	}
	s.handed = nil
	if s.proto != nil {
		s.proto.Release()
	}
	if s.first != nil {
		s.first.t.Release()
	}
}

// Checkpoint assembles a version-2 checkpoint of this run from a consistent
// cut: the flushed global counters and every outstanding task (queued and
// in flight) of a pool of the given width.
func (s *Setup) Checkpoint(c Counters, threads int, tasks []FrontierTask) *Checkpoint {
	return NewFrontierCheckpoint(s.constraints, s.InitialIndex, s.Heuristic, c, &Frontier{
		Prefix:  append([]PathStep(nil), s.Frontier.Prefix...),
		Threads: threads,
		Tasks:   tasks,
	})
}
