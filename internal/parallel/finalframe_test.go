package parallel

import (
	"math"
	"slices"
	"testing"

	"gentrius/internal/gen"
	"gentrius/internal/obs"
	"gentrius/internal/search"
	"gentrius/internal/terrace"
)

// leafByLeaf is the paper's machine as the pool's oracle (package search keeps
// its own for the serial runner): Algorithm 1 transcribed recursively, every
// taxon inserted and removed, the last one included, every count and branch
// list scanned afresh. It returns the counters, the stand rendered from the
// agile tree that holds each tree, and the number of leaves closed.
func leafByLeaf(tr *terrace.Terrace, h search.OrderHeuristic) (c search.Counters, trees []string, leaves int64) {
	deg := make([]int, tr.Taxa().Len())
	for i := 0; i < tr.NumConstraints(); i++ {
		tr.Constraint(i).LeafSet().ForEach(func(x int) { deg[x]++ })
	}
	next := func() int {
		best, bestCount := -1, -1
		for _, x := range tr.MissingTaxa() {
			if tr.Agile().HasTaxon(x) {
				continue
			}
			n := tr.CountAllowedBranches(x)
			switch {
			case n == 0:
				return x
			case best == -1,
				h == search.OrderMaxBranches && n > bestCount,
				h != search.OrderMaxBranches && n < bestCount,
				h == search.OrderMinBranchesTieDegree && n == bestCount && deg[x] > deg[best]:
				best, bestCount = x, n
			}
		}
		return best
	}
	var explore func()
	explore = func() {
		x := next()
		br := tr.AllowedBranches(x)
		if len(br) == 0 {
			c.DeadEnds++
			leaves++
		}
		for _, e := range br {
			tr.ExtendTaxon(x, e)
			if tr.Complete() {
				c.StandTrees++
				leaves++
				trees = append(trees, tr.Agile().Newick())
			} else {
				c.IntermediateStates++
				explore()
			}
			tr.RemoveTaxon()
		}
	}
	explore()
	return c, trees, leaves
}

// TestPoolMatchesLeafByLeaf: on stands of both corpus regimes and under all
// three heuristics the pool at 2 and 4 threads — and at 2 with the depth
// restriction lifted, so that final frames are split and stolen too — finds
// the oracle's counters, the oracle's stand as a multiset of bytes, and closes
// the oracle's leaves with mass 1.
func TestPoolMatchesLeafByLeaf(t *testing.T) {
	heuristics := []search.OrderHeuristic{search.OrderMinBranches, search.OrderMinBranchesTieDegree, search.OrderMaxBranches}
	unlimited := search.Limits{MaxTrees: -1, MaxStates: -1, MaxTime: -1}
	compared, stolen := 0, int64(0)
	for _, regime := range []gen.Regime{gen.RegimeSimulated, gen.RegimeEmpirical} {
		cfg := gen.Default(regime)
		cfg.MinTaxa, cfg.MaxTaxa = 16, 48
		for idx, found := 0, 0; found < 4; idx++ {
			if idx == 300 {
				t.Fatalf("%v corpus: %d stands found", regime, found)
			}
			ds := gen.Generate(cfg, idx)
			for _, h := range heuristics {
				probe, err := search.Run(ds.Constraints, search.Options{InitialTree: -1, Heuristic: h,
					Limits: search.Limits{MaxTrees: 20_000, MaxStates: 20_000, MaxTime: -1}})
				if err != nil {
					t.Fatal(err)
				}
				if probe.Stop != search.StopExhausted || probe.StandTrees < 20 {
					continue
				}
				if h == search.OrderMinBranches {
					found++
				}
				tr, err := terrace.New(ds.Constraints, probe.InitialIndex)
				if err != nil {
					t.Fatal(err)
				}
				want, stand, leaves := leafByLeaf(tr, h)
				slices.Sort(stand)
				for _, tc := range []struct {
					threads int
					policy  search.Policy
				}{{2, search.Policy{}}, {4, search.Policy{}}, {2, search.Policy{MinRemaining: 1}}} {
					est := &obs.Estimator{}
					got, err := Run(ds.Constraints, Options{Threads: tc.threads, InitialTree: -1, Heuristic: h,
						Limits: unlimited, Policy: tc.policy, CollectTrees: true, Obs: &obs.Sink{Estimate: est}})
					if err != nil {
						t.Fatal(err)
					}
					if got.Counters != want || !slices.Equal(sortedCopy(got.Trees), stand) {
						t.Fatalf("%s %v at %d threads (%+v): %+v and %d trees, leaf by leaf %+v and %d",
							ds.Name, h, tc.threads, tc.policy, got.Counters, len(got.Trees), want, len(stand))
					}
					if est.Leaves() != leaves || math.Abs(est.Fraction()-1) > 1e-9 {
						t.Fatalf("%s %v at %d threads: %d leaves closed with mass %.12f, leaf by leaf %d",
							ds.Name, h, tc.threads, est.Leaves(), est.Fraction(), leaves)
					}
					compared++
					stolen += got.TasksStolen
				}
			}
		}
	}
	if compared < 60 || stolen == 0 {
		t.Fatalf("%d runs compared, %d tasks stolen: not enough to mean anything", compared, stolen)
	}
}
