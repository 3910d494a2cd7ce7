package parallel

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"gentrius/internal/search"
	"gentrius/internal/tree"
)

// hugeConstraints builds two caterpillar constraint trees whose private
// taxon chains interleave combinatorially — an effectively unbounded stand
// for cancellation tests.
func hugeConstraints(t *testing.T) []*tree.Tree {
	t.Helper()
	all := []string{"A", "B", "C", "D"}
	for i := 0; i < 12; i++ {
		all = append(all, fmt.Sprintf("x%d", i), fmt.Sprintf("y%d", i))
	}
	taxa := tree.MustTaxa(all)
	cat := func(leaves []string) string {
		s := "(" + leaves[0] + "," + leaves[1] + ")"
		for _, n := range leaves[2:] {
			s = "(" + s + "," + n + ")"
		}
		return s + ";"
	}
	c1 := []string{"A", "B"}
	c2 := []string{"A", "B"}
	for i := 0; i < 12; i++ {
		c1 = append(c1, fmt.Sprintf("x%d", i))
		c2 = append(c2, fmt.Sprintf("y%d", i))
	}
	c1 = append(c1, "C", "D")
	c2 = append(c2, "C", "D")
	return []*tree.Tree{tree.MustParse(cat(c1), taxa), tree.MustParse(cat(c2), taxa)}
}

func unlimited() search.Limits {
	return search.Limits{MaxTrees: -1, MaxStates: -1, MaxTime: -1}
}

// TestParallelCancelMidFlight cancels a run that would otherwise take far
// longer than the test timeout and checks the pool drains cleanly with
// counter conservation intact.
func TestParallelCancelMidFlight(t *testing.T) {
	cons := hugeConstraints(t)
	for _, threads := range []int{1, 4} {
		t.Run(fmt.Sprintf("threads=%d", threads), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			time.AfterFunc(30*time.Millisecond, cancel)
			res, err := Run(cons, Options{Threads: threads, Limits: unlimited(), Ctx: ctx})
			if err != nil {
				t.Fatal(err)
			}
			if res.Stop != search.StopCancelled {
				t.Fatalf("stop = %v, want %v", res.Stop, search.StopCancelled)
			}
			sum := res.Prefix
			for _, c := range res.PerWorker {
				sum.Add(c)
			}
			if sum != res.Counters {
				t.Fatalf("counter conservation violated: prefix+workers %+v != %+v", sum, res.Counters)
			}
			if res.IntermediateStates == 0 {
				t.Fatal("no work recorded before cancellation")
			}
		})
	}
}

func TestParallelPreCancelled(t *testing.T) {
	cons := hugeConstraints(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	done := make(chan *Result, 1)
	go func() {
		res, err := Run(cons, Options{Threads: 4, Limits: unlimited(), Ctx: ctx})
		if err != nil {
			t.Error(err)
		}
		done <- res
	}()
	select {
	case res := <-done:
		if res != nil && res.Stop != search.StopCancelled {
			t.Fatalf("stop = %v, want %v", res.Stop, search.StopCancelled)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("pre-cancelled parallel run did not return")
	}
}

// TestStreamingOnTree checks the streaming path: with CollectTrees off and
// OnTree set, the callback receives exactly the stand (compared against a
// CollectTrees reference run) and Result.Trees stays nil.
func TestStreamingOnTree(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cons := randomScenario(rng, 12, 4, 3, 0.72)
	ref, err := Run(cons, Options{Threads: 4, CollectTrees: true})
	if err != nil {
		t.Fatal(err)
	}
	var streamed []string
	res, err := Run(cons, Options{
		Threads: 4,
		// The callback is serialized by the collector goroutine: plain
		// append without a mutex is the advertised contract.
		OnTree: func(nw string) { streamed = append(streamed, nw) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trees != nil {
		t.Fatalf("Result.Trees allocated (%d entries) with CollectTrees off", len(res.Trees))
	}
	if int64(len(streamed)) != res.StandTrees {
		t.Fatalf("OnTree saw %d trees, counters say %d", len(streamed), res.StandTrees)
	}
	got, want := sortedCopy(streamed), sortedCopy(ref.Trees)
	if len(got) != len(want) {
		t.Fatalf("streamed %d trees, reference %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("streamed stand differs from reference at %d", i)
		}
	}
}

// TestStreamingBothModes checks OnTree and CollectTrees compose: the
// callback and the collected slice see the same stand.
func TestStreamingBothModes(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	cons := randomScenario(rng, 11, 4, 3, 0.7)
	count := 0
	res, err := Run(cons, Options{
		Threads:      3,
		CollectTrees: true,
		// Blocks of one tree and a sink that blocks on its first ones let the
		// channel fill behind it: the workers meet backpressure.
		Policy: search.Policy{TreeBatch: 1},
		OnTree: func(string) {
			if count++; count <= 8 {
				time.Sleep(time.Millisecond)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if int64(count) != res.StandTrees || int64(len(res.Trees)) != res.StandTrees {
		t.Fatalf("OnTree %d, Trees %d, counters %d — want all equal", count, len(res.Trees), res.StandTrees)
	}
}
