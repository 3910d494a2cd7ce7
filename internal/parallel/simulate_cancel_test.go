package parallel

import (
	"cmp"
	"context"
	"fmt"
	"testing"

	"gentrius/internal/search"
	"gentrius/internal/tree"
)

// cancelConstraints builds two caterpillar constraint trees whose private
// chains interleave combinatorially: far too large to exhaust, so only the
// context can end the run.
func cancelConstraints(t *testing.T) []*tree.Tree {
	t.Helper()
	all := []string{"A", "B", "C", "D"}
	for i := 0; i < 10; i++ {
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
	c1, c2 := []string{"A", "B"}, []string{"A", "B"}
	for i := 0; i < 10; i++ {
		c1 = append(c1, fmt.Sprintf("x%d", i))
		c2 = append(c2, fmt.Sprintf("y%d", i))
	}
	c1 = append(c1, "C", "D")
	c2 = append(c2, "C", "D")
	return []*tree.Tree{tree.MustParse(cat(c1), taxa), tree.MustParse(cat(c2), taxa)}
}

// TestSimContextStops: a pre-cancelled context stops the simulation at the
// first poll (within CheckEvery virtual ticks of the prefix end, 1024 by
// default), with reason StopCancelled — deterministically, since virtual
// time never reads clocks.
func TestSimContextStops(t *testing.T) {
	cons := cancelConstraints(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, every := range []int{0, 16} {
		opt := search.Options{
			Threads: 4, Limits: search.Limits{MaxTrees: -1, MaxStates: -1}, Ctx: ctx, CheckEvery: every,
		}
		var first *SimResult
		for i := 0; i < 2; i++ {
			res, err := Simulate(cons, opt, VirtualTime{})
			if err != nil {
				t.Fatal(err)
			}
			if res.Stop != search.StopCancelled {
				t.Fatalf("CheckEvery %d: stop = %v, want %v", every, res.Stop, search.StopCancelled)
			}
			if i == 0 {
				first = res
			} else if res.Ticks != first.Ticks || res.Counters != first.Counters {
				t.Fatalf("CheckEvery %d: cancelled simulation not deterministic: %d/%+v vs %d/%+v",
					every, res.Ticks, res.Counters, first.Ticks, first.Counters)
			}
		}
		interval := int64(cmp.Or(every, 1024))
		if slack := first.Ticks - int64(first.PrefixLen); slack <= 0 || slack > interval {
			t.Fatalf("CheckEvery %d: cancellation latency %d ticks beyond the prefix, want within one %d-tick poll interval",
				every, slack, interval)
		}
	}
}

// TestSimUncancelledCtxIsDeterministic: passing a live context must not
// perturb the simulation — same makespan and counters as no context at all.
func TestSimUncancelledCtxIsDeterministic(t *testing.T) {
	cons := cancelConstraints(t)
	lim := search.Limits{MaxTrees: 500, MaxStates: -1}
	bare, err := Simulate(cons, search.Options{Threads: 3, Limits: lim}, VirtualTime{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	withCtx, err := Simulate(cons, search.Options{Threads: 3, Limits: lim, Ctx: ctx}, VirtualTime{})
	if err != nil {
		t.Fatal(err)
	}
	if bare.Ticks != withCtx.Ticks || bare.Counters != withCtx.Counters || bare.Stop != withCtx.Stop {
		t.Fatalf("live context changed the simulation: %d/%+v/%v vs %d/%+v/%v",
			withCtx.Ticks, withCtx.Counters, withCtx.Stop, bare.Ticks, bare.Counters, bare.Stop)
	}
}
