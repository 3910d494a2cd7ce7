package search

import (
	"context"
	"fmt"
	"sort"
	"testing"
	"time"

	"gentrius/internal/tree"
)

// chainConstraints builds two caterpillar constraint trees sharing the core
// {A,B,C,D}, with nx and ny private taxa respectively. The two private
// chains interleave almost freely, so the stand grows combinatorially in
// nx+ny — large values give an effectively unbounded enumeration for
// cancellation tests, small ones a finite but nontrivial stand.
func chainConstraints(t *testing.T, nx, ny int) []*tree.Tree {
	t.Helper()
	names := []string{"A", "B", "C", "D"}
	for i := 0; i < nx; i++ {
		names = append(names, fmt.Sprintf("x%d", i))
	}
	for i := 0; i < ny; i++ {
		names = append(names, fmt.Sprintf("y%d", i))
	}
	taxa := tree.MustTaxa(names)
	cat := func(leaves []string) string {
		s := "(" + leaves[0] + "," + leaves[1] + ")"
		for _, n := range leaves[2:] {
			s = "(" + s + "," + n + ")"
		}
		return s + ";"
	}
	c1 := []string{"A", "B"}
	for i := 0; i < nx; i++ {
		c1 = append(c1, fmt.Sprintf("x%d", i))
	}
	c1 = append(c1, "C", "D")
	c2 := []string{"A", "B"}
	for i := 0; i < ny; i++ {
		c2 = append(c2, fmt.Sprintf("y%d", i))
	}
	c2 = append(c2, "C", "D")
	return []*tree.Tree{
		tree.MustParse(cat(c1), taxa),
		tree.MustParse(cat(c2), taxa),
	}
}

// TestRunCancelMidFlight cancels from the checkpoint sink, which an Interval
// of a nanosecond calls at every stopping-rule check — i.e. exactly at a
// check — and expects the very same check to observe the cancellation (the
// acceptance criterion's "within one check interval").
func TestRunCancelMidFlight(t *testing.T) {
	cons := chainConstraints(t, 12, 12) // effectively unbounded stand
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	checks := 0
	res, err := Run(cons, Options{
		InitialTree: -1,
		Limits:      Limits{MaxTrees: -1, MaxStates: -1, MaxTime: -1},
		Ctx:         ctx,
		Checkpoint: CheckpointPolicy{Interval: time.Nanosecond, Sink: func(*Checkpoint) {
			checks++
			if checks == 2 {
				cancel()
			}
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stop != StopCancelled {
		t.Fatalf("stop = %v, want %v", res.Stop, StopCancelled)
	}
	if checks != 2 {
		t.Fatalf("cancellation observed after %d checks, want 2 (same check interval)", checks)
	}
	if res.IntermediateStates == 0 {
		t.Fatal("no work recorded before cancellation")
	}
}

func TestRunPreCancelled(t *testing.T) {
	cons := chainConstraints(t, 12, 12)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Run(cons, Options{
		InitialTree: -1,
		Limits:      Limits{MaxTrees: -1, MaxStates: -1, MaxTime: -1},
		Ctx:         ctx,
		CheckEvery:  64,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stop != StopCancelled {
		t.Fatalf("stop = %v, want %v", res.Stop, StopCancelled)
	}
	// A final frame is not divided: at most 2n-3 branches, two units each.
	if over := int64(2 * (2*cons[0].Taxa().Len() - 3)); res.Steps > 64+over {
		t.Fatalf("pre-cancelled run took %d steps, want <= one CheckEvery interval and one final frame (%d)", res.Steps, over)
	}
}

// TestCancelCheckpointResumeEqualsUninterrupted is the acceptance
// criterion: cancel a run, checkpoint it, resume it, and end with exactly
// the counters (and stand) of an uninterrupted run.
func TestCancelCheckpointResumeEqualsUninterrupted(t *testing.T) {
	cons := chainConstraints(t, 5, 5) // finite, but >> one check interval
	ref, err := Run(cons, Options{
		InitialTree:  -1,
		Limits:       Limits{MaxTrees: -1, MaxStates: -1, MaxTime: -1},
		CollectTrees: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ref.Stop != StopExhausted {
		t.Fatalf("reference run stopped early: %v", ref.Stop)
	}
	if ref.Steps <= 1024 {
		t.Fatalf("reference run too small (%d steps) to interrupt meaningfully", ref.Steps)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	part1, err := Run(cons, Options{
		InitialTree:  -1,
		Limits:       Limits{MaxTrees: -1, MaxStates: -1, MaxTime: -1},
		CollectTrees: true,
		Ctx:          ctx,
		// The first check's snapshot cancels the run at that check.
		Checkpoint: CheckpointPolicy{OnStop: true, Interval: time.Nanosecond,
			Sink: func(*Checkpoint) { cancel() }},
	})
	if err != nil {
		t.Fatal(err)
	}
	if part1.Stop != StopCancelled {
		t.Fatalf("interrupted run stop = %v", part1.Stop)
	}
	if part1.Checkpoint == nil {
		t.Fatal("no checkpoint captured on cancellation")
	}
	if part1.Counters == ref.Counters {
		t.Fatal("interrupted run already finished; nothing was tested")
	}

	part2, err := Run(cons, Options{
		Limits:       Limits{MaxTrees: -1, MaxStates: -1, MaxTime: -1},
		CollectTrees: true,
		Checkpoint:   CheckpointPolicy{Resume: part1.Checkpoint},
	})
	if err != nil {
		t.Fatal(err)
	}
	if part2.Stop != StopExhausted {
		t.Fatalf("resumed run stopped early: %v", part2.Stop)
	}
	// The resumed engine continues from the checkpoint counters, so its
	// final counters are the combined totals.
	if part2.Counters != ref.Counters {
		t.Fatalf("resumed counters %+v != uninterrupted %+v", part2.Counters, ref.Counters)
	}
	if part2.InitialIndex != ref.InitialIndex {
		t.Fatalf("resumed initial index %d != %d", part2.InitialIndex, ref.InitialIndex)
	}
	// The two partial stands partition the full stand exactly.
	combined := append(append([]string(nil), part1.Trees...), part2.Trees...)
	if int64(len(combined)) != ref.StandTrees {
		t.Fatalf("combined %d trees, reference %d", len(combined), ref.StandTrees)
	}
	sort.Strings(combined)
	refTrees := append([]string(nil), ref.Trees...)
	sort.Strings(refTrees)
	for i := range combined {
		if combined[i] != refTrees[i] {
			t.Fatalf("combined stand differs from reference at %d", i)
		}
	}
}

// TestResumeLimitStop checks that checkpoint-on-stop also covers stopping
// rules (not only cancellation) and chains across multiple resumes.
func TestResumeLimitStopChain(t *testing.T) {
	cons := chainConstraints(t, 5, 5)
	ref, err := Run(cons, Options{InitialTree: -1, Limits: Limits{MaxTrees: -1, MaxStates: -1, MaxTime: -1}})
	if err != nil {
		t.Fatal(err)
	}
	limit := ref.StandTrees / 3
	if limit == 0 {
		t.Fatal("stand too small")
	}
	res, err := Run(cons, Options{
		InitialTree: -1,
		Limits:      Limits{MaxTrees: limit, MaxStates: -1, MaxTime: -1},
		Checkpoint:  CheckpointPolicy{OnStop: true},
		CheckEvery:  64,
	})
	if err != nil {
		t.Fatal(err)
	}
	hops := 0
	for res.Checkpoint != nil {
		if res.Stop != StopTreeLimit {
			t.Fatalf("hop %d: stop = %v", hops, res.Stop)
		}
		hops++
		if hops > 10 {
			t.Fatal("resume chain does not terminate")
		}
		res, err = Run(cons, Options{
			Limits:     Limits{MaxTrees: res.StandTrees + limit, MaxStates: -1, MaxTime: -1},
			Checkpoint: CheckpointPolicy{OnStop: true, Resume: res.Checkpoint},
			CheckEvery: 64,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if res.Stop != StopExhausted {
		t.Fatalf("final stop = %v", res.Stop)
	}
	if res.Counters != ref.Counters {
		t.Fatalf("chained counters %+v != uninterrupted %+v", res.Counters, ref.Counters)
	}
	if hops < 2 {
		t.Fatalf("only %d resume hops; limit did not bite", hops)
	}
}

func TestCheckpointRejectsStaticOrder(t *testing.T) {
	cons := chainConstraints(t, 4, 4)
	if _, err := Run(cons, Options{InitialTree: -1, Checkpoint: CheckpointPolicy{OnStop: true}, DisableDynamicOrder: true}); err == nil {
		t.Fatal("OnStop with DisableDynamicOrder should error")
	}
	if _, err := Run(cons, Options{Checkpoint: CheckpointPolicy{Resume: &Checkpoint{Version: checkpointVersion}}, DisableDynamicOrder: true}); err == nil {
		t.Fatal("Resume with DisableDynamicOrder should error")
	}
	// A refused run ends its trigger too: a request returns at once.
	trig := NewCheckpointTrigger()
	if _, err := Run(cons, Options{Checkpoint: CheckpointPolicy{Trigger: trig}, DisableDynamicOrder: true}); err == nil {
		t.Fatal("a Trigger with DisableDynamicOrder should error")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := trig.Request(ctx); err != ErrRunEnded {
		t.Fatalf("Request on a refused run: %v, want ErrRunEnded", err)
	}
}
