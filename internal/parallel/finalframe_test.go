package parallel

import (
	"fmt"
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
// restriction lifted, so that final frames and penultimate frames are split
// and stolen too — finds the oracle's counters, the oracle's stand as a
// multiset of bytes, and closes the oracle's leaves with mass 1, collecting
// the trees and counting them alike. The pool's Work — its engines and the
// prefix walk — inserts once per state it did not look ahead of, collecting
// or not: by ExtendTaxon, or by booking the insertion. Collecting, it does
// the counting pool's work — the same insertions made, booked and made for
// real afterwards, the same branches looked ahead of and fallen back from —
// and takes the same Steps to the same stop. Stands 6
// and 7 of the paper-shaped simulated corpus, where every penultimate branch
// falls back to the insertion, and 12 and 16, where none does, ride along.
// Every stand runs from the heuristic's initial tree and from the first
// constraint that lacks its lowest taxon.
func TestPoolMatchesLeafByLeaf(t *testing.T) {
	heuristics := []search.OrderHeuristic{search.OrderMinBranches, search.OrderMinBranchesTieDegree, search.OrderMaxBranches}
	unlimited := search.Limits{MaxTrees: -1, MaxStates: -1, MaxTime: -1}
	compared, across, stolen := 0, 0, int64(0)
	var counting search.Work
	for _, regime := range []gen.Regime{gen.RegimeSimulated, gen.RegimeEmpirical} {
		cfg := gen.Default(regime)
		cfg.MinTaxa, cfg.MaxTaxa = 16, 48
		var stands []*gen.Dataset
		for idx := 0; len(stands) < 4; idx++ {
			if idx == 300 {
				t.Fatalf("%v corpus: %d stands found", regime, len(stands))
			}
			ds := gen.Generate(cfg, idx)
			probe, err := search.Run(ds.Constraints, search.Options{InitialTree: -1,
				Limits: search.Limits{MaxTrees: 20_000, MaxStates: 20_000, MaxTime: -1}})
			if err != nil {
				t.Fatal(err)
			}
			if probe.Stop == search.StopExhausted && probe.StandTrees >= 20 {
				stands = append(stands, ds)
			}
		}
		fixtures := map[string]bool{} // name -> every penultimate branch looks ahead (or none does)
		if regime == gen.RegimeSimulated {
			for idx, all := range map[int]bool{6: false, 7: false, 12: true, 16: true} {
				ds := gen.Generate(gen.Default(regime), idx)
				stands, fixtures[ds.Name] = append(stands, ds), all
			}
		}
		for _, ds := range stands {
			// From the heuristic's initial tree, and from the first constraint
			// that lacks the stand's lowest taxon, where a collecting pool's
			// Newick writers derive across a taxon below every leaf.
			initials := []int{-1}
			for i, c := range ds.Constraints {
				if !c.HasTaxon(0) {
					initials = append(initials, i)
					break
				}
			}
			for _, initial := range initials {
				for _, h := range heuristics {
					if _, is := fixtures[ds.Name]; is && h != search.OrderMinBranches {
						continue // a fixture is one for min-branches, and large for the oracle
					}
					probe, err := search.Run(ds.Constraints, search.Options{InitialTree: initial, Heuristic: h,
						Limits: search.Limits{MaxTrees: 20_000, MaxStates: 20_000, MaxTime: -1}})
					if err != nil {
						t.Fatal(err)
					}
					if probe.Stop != search.StopExhausted || probe.StandTrees < 20 {
						continue
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
						var collecting *Result
						for _, collect := range []bool{true, false} {
							est := &obs.Estimator{}
							got, err := Run(ds.Constraints, Options{Threads: tc.threads, InitialTree: initial, Heuristic: h,
								Limits: unlimited, Policy: tc.policy, CollectTrees: collect, Obs: &obs.Sink{Estimate: est}})
							if err != nil {
								t.Fatal(err)
							}
							if got.Counters != want || collect && !slices.Equal(sortedCopy(got.Trees), stand) {
								t.Fatalf("%s %v at %d threads (%+v, collecting %v): %+v and %d trees, leaf by leaf %+v and %d",
									ds.Name+fmt.Sprintf(" from tree %d", initial), h, tc.threads, tc.policy, collect, got.Counters, len(got.Trees), want, len(stand))
							}
							if est.Leaves() != leaves || math.Abs(est.Fraction()-1) > 1e-9 {
								t.Fatalf("%s %v at %d threads (collecting %v): %d leaves closed with mass %.12f, leaf by leaf %d",
									ds.Name+fmt.Sprintf(" from tree %d", initial), h, tc.threads, collect, est.Leaves(), est.Fraction(), leaves)
							}
							compared++
							if initial >= 0 {
								across++
							}
							stolen += got.TasksStolen
							w, states := got.Work, got.IntermediateStates
							if collect {
								collecting = got
								continue
							}
							inserted := func(w search.Work) int64 { return w.Extends + w.Booked - w.Materialized }
							// The subtrees a worker takes whole depend on when it polls,
							// so they differ from run to run of the pool; nothing else does.
							cw := collecting.Work
							cw.Emit, cw.Whole = w.Emit, w.Whole
							if inserted(w) != states-w.LookAheads || cw != w || collecting.Steps != got.Steps || collecting.Stop != got.Stop {
								t.Fatalf("%s %v at %d threads (%+v): counting work %+v in %d steps (%v), collecting %+v in %d (%v) for %d states",
									ds.Name+fmt.Sprintf(" from tree %d", initial), h, tc.threads, tc.policy, w, got.Steps, got.Stop, collecting.Work, collecting.Steps, collecting.Stop, states)
							}
							if all, is := fixtures[ds.Name]; is && initial == -1 && // a fixture is one from the heuristic's tree
								(w.LookAheads+w.Fallbacks == 0 || all && w.Fallbacks != 0 || !all && w.LookAheads != 0) {
								t.Fatalf("%s: fixture of all look-ahead %v did %+v", ds.Name, all, w)
							}
							counting.Add(w)
						}
					}
				}
			}
		}
	}
	if compared < 240 || across < 120 || stolen == 0 || counting.LookAheads < 1000 || counting.Fallbacks < 1000 || counting.Booked < 1000 {
		t.Fatalf("%d runs compared (%d from a tree without the lowest taxon), %d tasks stolen, counting pools did %+v: not enough to mean anything",
			compared, across, stolen, counting)
	}
}

// TestTreeLimitOvershootPerWorker: no step is divided, so a pool that
// publishes after every step passes a tree limit by less than one step's
// trees per worker — the step that crossed it, and the one each other worker
// was in — and a final frame or a look-ahead step finds at most the 2n-3
// branches of a tree on n taxa. The stop's checkpoint resumes to the stand.
func TestTreeLimitOvershootPerWorker(t *testing.T) {
	ds := gen.Generate(gen.Default(gen.RegimeSimulated), 12)
	n := int64(ds.Taxa.Len())
	unlimited := search.Limits{MaxTrees: -1, MaxStates: -1, MaxTime: -1}
	whole, err := search.Run(ds.Constraints, search.Options{InitialTree: -1, Limits: unlimited})
	if err != nil {
		t.Fatal(err)
	}
	for _, threads := range []int{1, 2, 4} {
		for limit := int64(10); limit < whole.StandTrees; limit += 400 {
			res, err := Run(ds.Constraints, Options{Threads: threads, InitialTree: -1,
				Limits:     search.Limits{MaxTrees: limit, MaxStates: -1, MaxTime: -1},
				Policy:     search.Policy{TreeBatch: 1, StateBatch: 1, DeadEndBatch: 1},
				Checkpoint: search.CheckpointPolicy{OnStop: true}})
			if err != nil {
				t.Fatal(err)
			}
			if over := res.StandTrees - limit; res.Stop != search.StopTreeLimit || over < 0 || over >= int64(threads)*(2*n-3) {
				t.Fatalf("limit %d at %d threads: stopped for %v at %d trees, %d taxa", limit, threads, res.Stop, res.StandTrees, n)
			}
			if res.Work.LookAheads == 0 && limit > 1000 {
				t.Fatalf("limit %d at %d threads: the pool never looked ahead: %+v", limit, threads, res.Work)
			}
			rest, err := Run(ds.Constraints, Options{Threads: threads, Limits: unlimited, Checkpoint: search.CheckpointPolicy{Resume: res.Checkpoint}})
			if err != nil {
				t.Fatal(err)
			}
			if rest.Counters != whole.Counters {
				t.Fatalf("limit %d at %d threads: resumed to %+v, the stand is %+v", limit, threads, rest.Counters, whole.Counters)
			}
		}
	}
}
