package terrace

import "gentrius/internal/bitset"

// AllowedBranches returns the admissible agile edges for inserting taxon x,
// in ascending edge-id order (deterministic: the parallel engine splits this
// list positionally across workers). An empty result means inserting x is
// impossible in the current state — a dead end.
//
// The set is the intersection over all constraints containing x (with
// |S_i| >= 2) of the preimage of x's target common edge under the agile-side
// mapping. It is computed by the word-parallel kernel (words.go): one packed
// preimage lane per constraint, ANDed 64 edges per operation and enumerated
// in ascending bit order — already the deterministic order, with no sort.
// (The scalar scan-and-DFS it replaced is the tests' oracle.)
func (tr *Terrace) AllowedBranches(x int) []int32 {
	return tr.AppendAllowedBranches(nil, x)
}

// AppendAllowedBranches appends the admissible agile edges for taxon x to
// buf in ascending edge-id order and returns the extended slice. It is the
// allocation-free form of AllowedBranches: the search engine's frame stack
// passes recycled buffers, so the steady-state step loop never allocates.
// The preimage lanes are combined and enumerated in a single pass; nothing
// is materialized besides the appended result.
func (tr *Terrace) AppendAllowedBranches(buf []int32, x int) []int32 {
	rows := tr.allowedRows(x)
	if len(rows) == 0 {
		// Unconstrained so far: every agile edge is admissible.
		n := int32(tr.agile.NumEdges())
		for e := int32(0); e < n; e++ {
			buf = append(buf, e)
		}
	} else {
		buf = bitset.AppendAndBits32(buf, rows, tr.laneWords())
	}
	return buf
}

// CountAllowedBranches returns len(AllowedBranches(x)) without allocating:
// a popcount over the ANDed preimage lanes. The search hot path uses the
// incrementally maintained PendingCount instead; this is the from-scratch
// count query for callers outside the engine and the recount fallback.
func (tr *Terrace) CountAllowedBranches(x int) int {
	rows := tr.allowedRows(x)
	if len(rows) == 0 {
		return tr.agile.NumEdges()
	}
	return bitset.OnesCountAnd(rows, tr.laneWords())
}

// CountAllowedBoth returns how many agile edges are admissible for inserting
// taxon x and for inserting taxon y: a popcount over the preimage lanes of
// both, ANDed together.
func (tr *Terrace) CountAllowedBoth(x, y int) int {
	tr.rowsBuf = tr.appendRows(tr.appendRows(tr.rowsBuf[:0], x), y)
	if len(tr.rowsBuf) == 0 {
		return tr.agile.NumEdges()
	}
	return bitset.OnesCountAnd(tr.rowsBuf, tr.laneWords())
}
