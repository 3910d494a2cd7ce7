// Online search-space estimation: a Knuth-style weighted backtrack
// estimator that turns the branch-and-bound traversal itself into a
// progress gauge, with no tree/state limit required.
//
// The estimator assigns every leaf of the decision tree (a completed stand
// tree, or a dead end) its probability under a uniform random descent from
// the root: the product over the leaf's ancestor decision nodes of
// 1/(number of admissible branches at that node). Those probabilities form
// an exact distribution over leaves — at every interior node the children's
// probabilities sum to the node's own — so the sum over ALL leaves is
// exactly 1, and the running sum over the leaves *visited so far* is an
// exact, monotone fraction-complete measure that reaches 1.0 when the
// space is exhausted. Mid-run it is the weighted backtrack estimate of
// Kilby, Slaney, Thiébaux & Walsh (2006): unbiased under random branch
// ordering, and in practice within a small factor of truth once a
// representative sample of subtrees has been closed (see DESIGN.md).
//
// Work stealing preserves the invariant: when a frame with b branches
// hands n of them to a task, each branch keeps its per-branch weight
// (parent weight / b) no matter which worker explores it, so the global
// leaf-weight sum still telescopes to 1 across any partition of the space.
//
// The estimator is engine-agnostic: the serial runner, the parallel pool
// and the virtual-time simulator all feed the same accumulator (workers
// batch their mass locally and merge on counter flushes, which keeps the
// virtual-time runs deterministic and the parallel hot path contention
// free). All methods are nil-receiver safe and concurrency safe.
package obs

import (
	"sync/atomic"
	"time"
)

// Estimator accumulates visited leaf mass and live counters for one run.
type Estimator struct {
	mass   atomicFloat  // Σ random-descent probabilities of visited leaves
	leaves atomic.Int64 // visited leaves (stand trees + dead ends)

	// Live counters, updated by the engines alongside their metric
	// flushes so a front end can report progress from one object.
	trees  atomic.Int64
	states atomic.Int64
	dead   atomic.Int64
}

// AddLeafMass merges visited-leaf mass — a final frame's or a dead end's
// descent probability, or a worker's local accumulation of them — into the
// estimator. leaves may be 0 when only mass is
// merged (e.g. the pre-explored portion of a resumed checkpoint).
func (e *Estimator) AddLeafMass(mass float64, leaves int64) {
	if e == nil || (mass == 0 && leaves == 0) {
		return
	}
	if mass != 0 {
		e.mass.add(mass)
	}
	if leaves != 0 {
		e.leaves.Add(leaves)
	}
}

// AddCounters merges a counter delta (stand trees, intermediate states,
// dead ends) into the estimator's live view.
func (e *Estimator) AddCounters(trees, states, dead int64) {
	if e == nil {
		return
	}
	if trees != 0 {
		e.trees.Add(trees)
	}
	if states != 0 {
		e.states.Add(states)
	}
	if dead != 0 {
		e.dead.Add(dead)
	}
}

// Fraction returns the estimated fraction of the search space already
// explored, clamped to [0, 1]. It is exactly 1 when the space is
// exhausted (up to float rounding) and 0 before any leaf was closed.
func (e *Estimator) Fraction() float64 {
	if e == nil {
		return 0
	}
	f := e.mass.load()
	switch {
	case f < 0:
		return 0
	case f > 1:
		return 1
	}
	return f
}

// Leaves returns the number of visited leaves (stand trees + dead ends).
func (e *Estimator) Leaves() int64 {
	if e == nil {
		return 0
	}
	return e.leaves.Load()
}

// Trees, States, DeadEnds return the live counter view.
func (e *Estimator) Trees() int64 {
	if e == nil {
		return 0
	}
	return e.trees.Load()
}

// States returns the live intermediate-state count.
func (e *Estimator) States() int64 {
	if e == nil {
		return 0
	}
	return e.states.Load()
}

// DeadEnds returns the live dead-end count.
func (e *Estimator) DeadEnds() int64 {
	if e == nil {
		return 0
	}
	return e.dead.Load()
}

// EstimateETA extrapolates the remaining duration from a fraction-complete
// measure and the elapsed time: elapsed*(1-f)/f. ok is false when the
// fraction is too small to extrapolate from (below 0.1% explored) or
// already complete.
func EstimateETA(fraction float64, elapsed time.Duration) (time.Duration, bool) {
	if fraction < 1e-3 || fraction >= 1 || elapsed <= 0 {
		return 0, false
	}
	eta := float64(elapsed) * (1 - fraction) / fraction
	return time.Duration(eta), true
}
