package search

import (
	"encoding/json"
	"math"
	"math/rand"
	"sort"
	"testing"

	"gentrius/internal/terrace"
)

// taskKeys marshals every task to canonical JSON and sorts, so two task
// multisets compare exactly regardless of shard order.
func taskKeys(t *testing.T, tasks []FrontierTask) []string {
	t.Helper()
	keys := make([]string, len(tasks))
	for i := range tasks {
		b, err := json.Marshal(&tasks[i])
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = string(b)
	}
	sort.Strings(keys)
	return keys
}

func sameKeys(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// randomFrontier builds a synthetic multi-task frontier with plausible
// frame stacks (weights telescoping down a path, partial idx progress).
func randomFrontier(rng *rand.Rand, nTasks int) *Frontier {
	fr := &Frontier{
		Prefix:  []PathStep{{Taxon: 3, Edge: 7}, {Taxon: 5, Edge: 1}},
		Threads: 4,
	}
	for t := 0; t < nTasks; t++ {
		task := FrontierTask{Path: []PathStep{{Taxon: 8, Edge: int32(t)}}}
		depth := 1 + rng.Intn(4)
		w := 1.0 / float64(1+rng.Intn(6))
		for d := 0; d < depth; d++ {
			nb := 1 + rng.Intn(5)
			branches := make([]int32, nb)
			for i := range branches {
				branches[i] = int32(rng.Intn(30))
			}
			idx := rng.Intn(nb + 1)
			task.Frames = append(task.Frames, FrameSnapshot{
				Taxon:    10 + d,
				Branches: branches,
				Idx:      idx,
				Inserted: idx > 0,
				Weight:   w,
			})
			w /= float64(nb)
		}
		fr.Tasks = append(fr.Tasks, task)
	}
	return fr
}

// TestSplitFrontierConservation: for random frontiers and a spread of K
// (including K > task count), the split is an exact partition — task
// multiset conserved, shard masses summing to the root mass, shard count
// min(K, tasks), prefix inherited everywhere.
func TestSplitFrontierConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(14) // includes 0-task frontiers
		fr := randomFrontier(rng, n)
		want := taskKeys(t, fr.Tasks)
		wantMass := fr.RemainingMass()
		for _, k := range []int{1, 2, 3, n, n + 5, 2*n + 1} {
			if k < 1 {
				continue
			}
			shards := SplitFrontier(fr, k)
			if n == 0 {
				if shards != nil {
					t.Fatalf("empty frontier split into %d shards", len(shards))
				}
				continue
			}
			wantShards := k
			if wantShards > n {
				wantShards = n
			}
			if len(shards) != wantShards {
				t.Fatalf("n=%d k=%d: %d shards, want %d", n, k, len(shards), wantShards)
			}
			var got []FrontierTask
			total := 0.0
			for si, s := range shards {
				if len(s.Tasks) == 0 {
					t.Fatalf("n=%d k=%d: shard %d empty", n, k, si)
				}
				if len(s.Prefix) != len(fr.Prefix) {
					t.Fatalf("shard %d lost the prefix", si)
				}
				got = append(got, s.Tasks...)
				total += s.RemainingMass()
			}
			if !sameKeys(want, taskKeys(t, got)) {
				t.Fatalf("n=%d k=%d: task multiset not conserved", n, k)
			}
			if math.Abs(total-wantMass) > 1e-12*math.Max(1, wantMass) {
				t.Fatalf("n=%d k=%d: mass %v, want %v", n, k, total, wantMass)
			}
			if k > n {
				for si, s := range shards {
					if len(s.Tasks) != 1 {
						t.Fatalf("k>n shard %d has %d tasks, want singletons", si, len(s.Tasks))
					}
				}
			}
		}
	}
}

// TestSplitFrontierDeterministic: same input, same split.
func TestSplitFrontierDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	fr := randomFrontier(rng, 9)
	a := SplitFrontier(fr, 4)
	b := SplitFrontier(fr, 4)
	for i := range a {
		if !sameKeys(taskKeys(t, a[i].Tasks), taskKeys(t, b[i].Tasks)) {
			t.Fatalf("shard %d differs between identical splits", i)
		}
	}
}

// TestSplitFrontierMergeRoundTrip: the shards of SplitFrontier(fr, k),
// concatenated, reproduce the task multiset and the mass, and every shard
// carries the prefix.
func TestSplitFrontierMergeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	fr := randomFrontier(rng, 11)
	for _, k := range []int{1, 3, 11, 40} {
		merged := &Frontier{Prefix: fr.Prefix}
		for _, s := range SplitFrontier(fr, k) {
			if len(s.Prefix) != len(fr.Prefix) {
				t.Fatalf("k=%d: a shard lost the prefix", k)
			}
			merged.Tasks = append(merged.Tasks, s.Tasks...)
		}
		if !sameKeys(taskKeys(t, fr.Tasks), taskKeys(t, merged.Tasks)) {
			t.Fatalf("k=%d: merge lost or duplicated tasks", k)
		}
		if math.Abs(merged.RemainingMass()-fr.RemainingMass()) > 1e-12 {
			t.Fatalf("k=%d: merge mass %v, want %v", k, merged.RemainingMass(), fr.RemainingMass())
		}
	}
}

// TestSplitFrontierSeededStand: the root frontier of a real seeded stand
// (initial-split branches as seed tasks, weight 1/B each) splits into a
// conservative partition whose total mass is exactly the root mass.
func TestSplitFrontierSeededStand(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	for trial := 0; trial < 8; trial++ {
		cons := randomScenario(rng, 11, 2, 4, 0.55)
		idx := ChooseInitialTree(cons)
		tr, err := terrace.New(cons, idx)
		if err != nil {
			t.Fatal(err)
		}
		pre := PrefixWalkH(tr, OrderMinBranches, nil)
		if pre.Terminal {
			continue
		}
		fr := &Frontier{Prefix: pre.Path}
		w := 1.0 / float64(len(pre.SplitBranches))
		for _, b := range pre.SplitBranches {
			fr.Tasks = append(fr.Tasks,
				NewSeedTask(nil, pre.SplitTaxon, []int32{b}, w))
		}
		if math.Abs(fr.RemainingMass()-1.0) > 1e-12 {
			t.Fatalf("root frontier mass %v, want 1", fr.RemainingMass())
		}
		for _, k := range []int{1, 2, 3, len(fr.Tasks) + 2} {
			shards := SplitFrontier(fr, k)
			total := 0.0
			var got []FrontierTask
			for _, s := range shards {
				total += s.RemainingMass()
				got = append(got, s.Tasks...)
			}
			if math.Abs(total-1.0) > 1e-12 {
				t.Fatalf("k=%d: shard mass sum %v, want 1", k, total)
			}
			if !sameKeys(taskKeys(t, fr.Tasks), taskKeys(t, got)) {
				t.Fatalf("k=%d: seeded-stand task multiset not conserved", k)
			}
		}
	}
}

// TestFrontierTaskMassMatchesRemainingMass: summing per-task Mass equals
// the frontier's RemainingMass.
func TestFrontierTaskMassMatchesRemainingMass(t *testing.T) {
	rng := rand.New(rand.NewSource(31337))
	fr := randomFrontier(rng, 13)
	sum := 0.0
	for i := range fr.Tasks {
		sum += fr.Tasks[i].Mass()
	}
	if math.Abs(sum-fr.RemainingMass()) > 1e-12 {
		t.Fatalf("Σ task mass %v != RemainingMass %v", sum, fr.RemainingMass())
	}
}
