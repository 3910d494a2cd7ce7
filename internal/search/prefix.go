package search

import "gentrius/internal/terrace"

// PrefixResult describes the deterministic prefix of a Gentrius run: the
// forced insertions every worker performs identically before the first taxon
// with two or more admissible branches — the paper's "state of the initial
// split" I_0.
type PrefixResult struct {
	// Path is the sequence of forced insertions (still applied to the
	// terrace when PrefixWalkH returns).
	Path []PathStep
	// SplitTaxon and SplitBranches describe the initial-split frame
	// (SplitBranches has >= 2 entries) unless the prefix terminated early.
	SplitTaxon    int
	SplitBranches []int32
	// Counters tallies the prefix's intermediate states (and the single
	// stand tree or dead end if the prefix terminated the search).
	Counters Counters
	// Terminal is true when the search ended within the prefix: either the
	// tree completed (stand size 1) or a forced taxon had no admissible
	// branch (stand size 0).
	Terminal bool
}

// PrefixWalkH advances the terrace through all forced insertions (taxa with
// exactly one admissible branch, picked by the dynamic heuristic h or, when
// order is not nil, in that static order) and stops at the initial split.
// The insertions remain applied. Which case a taxon is in, its count tells,
// the one the heuristic has just read: a forced branch is listed into one
// buffer, reused to the end of the walk, and only the split's branches,
// which the tasks keep, are listed into a slice of their own, of that size.
func PrefixWalkH(t *terrace.Terrace, h OrderHeuristic, order []int) PrefixResult {
	var res PrefixResult
	e := NewEngine(t)
	e.DynamicOrder, e.Heuristic, e.Order = order == nil, h, order
	var forced [1]int32
	for {
		if t.Complete() {
			res.Counters.StandTrees++
			res.Terminal = true
			return res
		}
		x := e.nextTaxon()
		switch c := t.PendingCount(x); c {
		case 0:
			res.Counters.DeadEnds++
			res.Terminal = true
			return res
		case 1:
			edge := t.AppendAllowedBranches(forced[:0], x)[0]
			t.ExtendTaxon(x, edge)
			res.Path = append(res.Path, PathStep{Taxon: x, Edge: edge})
			if !t.Complete() {
				res.Counters.IntermediateStates++
			}
		default:
			res.SplitTaxon = x
			res.SplitBranches = t.AppendAllowedBranches(make([]int32, 0, c), x)
			return res
		}
	}
}

// PartitionBranches splits the initial-split branch set into nWorkers
// contiguous blocks as evenly as possible (the paper's example: 5 branches
// on 4 threads gives 2+1+1+1). Workers beyond the branch count receive nil
// and start in the stealing pool.
func PartitionBranches(branches []int32, nWorkers int) [][]int32 {
	out := make([][]int32, nWorkers)
	k := len(branches)
	if nWorkers <= 0 {
		return out
	}
	base := k / nWorkers
	extra := k % nWorkers
	pos := 0
	for w := 0; w < nWorkers; w++ {
		sz := base
		if w < extra {
			sz++
		}
		if sz > 0 {
			out[w] = branches[pos : pos+sz]
		}
		pos += sz
	}
	return out
}
