package terrace

import (
	"math/rand"
	"testing"
)

// buildBench prepares a mid-sized terrace plus a valid insertion path.
func buildBench(b *testing.B, n, m int) (*Terrace, []int, [][]int32) {
	b.Helper()
	rng := rand.New(rand.NewSource(99))
	_, cons := randomScenario(rng, n, m, 5, 0.6)
	tr, err := New(cons, 0)
	if err != nil {
		b.Fatal(err)
	}
	var taxa []int
	var branches [][]int32
	for _, x := range tr.MissingTaxa() {
		br := tr.AllowedBranches(x)
		if len(br) == 0 {
			break
		}
		taxa = append(taxa, x)
		branches = append(branches, br)
		tr.ExtendTaxon(x, br[0])
	}
	for tr.Depth() > 0 {
		tr.RemoveTaxon()
	}
	if len(taxa) == 0 {
		b.Skip("no insertable taxa in scenario")
	}
	return tr, taxa, branches
}

// BenchmarkExtendRemove measures the core state transition pair — the unit
// of virtual time in the scaling studies and the dominant cost of Gentrius.
func BenchmarkExtendRemove(b *testing.B) {
	tr, taxa, branches := buildBench(b, 60, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(taxa)
		for j := 0; j <= k; j++ {
			tr.ExtendTaxon(taxa[j], branches[j][0])
		}
		for j := k; j >= 0; j-- {
			tr.RemoveTaxon()
		}
	}
}

// BenchmarkAllowedBranches measures the admissibility query that the
// dynamic insertion heuristic issues for every remaining taxon at every
// state.
func BenchmarkAllowedBranches(b *testing.B) {
	tr, taxa, branches := buildBench(b, 60, 8)
	half := len(taxa) / 2
	for j := 0; j < half; j++ {
		tr.ExtendTaxon(taxa[j], branches[j][0])
	}
	rest := taxa[half:]
	if len(rest) == 0 {
		b.Skip("nothing left to query")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.CountAllowedBranches(rest[i%len(rest)])
	}
}

// BenchmarkPendingCount measures the incremental count query the dynamic
// insertion heuristic issues for every pending taxon at every state — the
// replacement for the fresh scan of BenchmarkAllowedBranches' inner call.
func BenchmarkPendingCount(b *testing.B) {
	tr, taxa, branches := buildBench(b, 60, 8)
	half := len(taxa) / 2
	for j := 0; j < half; j++ {
		tr.ExtendTaxon(taxa[j], branches[j][0])
	}
	rest := taxa[half:]
	if len(rest) == 0 {
		b.Skip("nothing left to query")
	}
	// Warm the caches so the loop measures the steady state (hits + O(1)).
	for _, x := range rest {
		tr.PendingCount(x)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.PendingCount(rest[i%len(rest)])
	}
}

// BenchmarkAppendAllowedBranches measures the frame-fill path of the search
// engine: enumerate-and-sort into a caller-owned buffer, zero allocations.
func BenchmarkAppendAllowedBranches(b *testing.B) {
	tr, taxa, branches := buildBench(b, 60, 8)
	half := len(taxa) / 2
	for j := 0; j < half; j++ {
		tr.ExtendTaxon(taxa[j], branches[j][0])
	}
	rest := taxa[half:]
	if len(rest) == 0 {
		b.Skip("nothing left to query")
	}
	buf := make([]int32, 0, tr.Agile().NumEdges())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = tr.AppendAllowedBranches(buf[:0], rest[i%len(rest)])
	}
}

// BenchmarkTerraceInit measures building the state from the constraints,
// which a run does once.
func BenchmarkTerraceInit(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	_, cons := randomScenario(rng, 80, 10, 5, 0.6)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := New(cons, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTerraceClone measures per-worker start-up: every pool worker's
// private state is a clone of the run's one Terrace.
func BenchmarkTerraceClone(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	_, cons := randomScenario(rng, 80, 10, 5, 0.6)
	proto, err := New(cons, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if proto.Clone().Depth() != 0 {
			b.Fatal("clone of a fresh state is not at depth 0")
		}
	}
}
