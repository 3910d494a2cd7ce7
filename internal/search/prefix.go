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
// The insertions remain applied.
func PrefixWalkH(t *terrace.Terrace, h OrderHeuristic, order []int) PrefixResult {
	var res PrefixResult
	e := &Engine{T: t, DynamicOrder: order == nil, Heuristic: h, Order: order}
	for {
		if t.Complete() {
			res.Counters.StandTrees++
			res.Terminal = true
			return res
		}
		x := e.nextTaxon()
		branches := t.AllowedBranches(x)
		switch len(branches) {
		case 0:
			res.Counters.DeadEnds++
			res.Terminal = true
			return res
		case 1:
			t.ExtendTaxon(x, branches[0])
			res.Path = append(res.Path, PathStep{Taxon: x, Edge: branches[0]})
			if !t.Complete() {
				res.Counters.IntermediateStates++
			}
		default:
			res.SplitTaxon = x
			res.SplitBranches = branches
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
