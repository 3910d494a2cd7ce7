package gentrius

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"sort"
	"testing"
	"time"
)

// apiChainConstraints builds the two-caterpillar family used by the
// engine-level cancellation tests, through the public parsing API.
func apiChainConstraints(t *testing.T, nx, ny int) []*Tree {
	t.Helper()
	all := []string{"A", "B", "C", "D"}
	for i := 0; i < nx; i++ {
		all = append(all, fmt.Sprintf("x%d", i))
	}
	for i := 0; i < ny; i++ {
		all = append(all, fmt.Sprintf("y%d", i))
	}
	taxa := MustTaxa(all)
	cat := func(leaves []string) string {
		s := "(" + leaves[0] + "," + leaves[1] + ")"
		for _, n := range leaves[2:] {
			s = "(" + s + "," + n + ")"
		}
		return s + ";"
	}
	c1, c2 := []string{"A", "B"}, []string{"A", "B"}
	for i := 0; i < nx; i++ {
		c1 = append(c1, fmt.Sprintf("x%d", i))
	}
	for i := 0; i < ny; i++ {
		c2 = append(c2, fmt.Sprintf("y%d", i))
	}
	c1 = append(c1, "C", "D")
	c2 = append(c2, "C", "D")
	return []*Tree{MustParseTree(cat(c1), taxa), MustParseTree(cat(c2), taxa)}
}

func unlimitedOptions(threads int) Options {
	return Options{
		Threads: threads, InitialTree: UseInitialTreeHeuristic,
		MaxTrees: -1, MaxStates: -1, MaxTime: -1,
	}
}

func TestEnumerateStandContextCancel(t *testing.T) {
	cons := apiChainConstraints(t, 12, 12) // effectively unbounded stand
	for _, threads := range []int{1, 4} {
		t.Run(fmt.Sprintf("threads=%d", threads), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			time.AfterFunc(30*time.Millisecond, cancel)
			res, err := EnumerateStandContext(ctx, cons, unlimitedOptions(threads))
			if err != nil {
				t.Fatal(err)
			}
			if res.Stop != StopCancelled {
				t.Fatalf("stop = %v, want %v", res.Stop, StopCancelled)
			}
			if res.Complete() {
				t.Fatal("cancelled run reported a complete stand")
			}
			if res.IntermediateStates == 0 {
				t.Fatal("no work recorded before cancellation")
			}
		})
	}
}

// TestCheckpointRoundTripAPI cancels a serial run, serializes the
// checkpoint through the public ReadCheckpoint path, resumes, and checks
// the acceptance criterion: final counters identical to an uninterrupted
// run's.
func TestCheckpointRoundTripAPI(t *testing.T) {
	cons := apiChainConstraints(t, 5, 5)
	ref, err := EnumerateStand(cons, unlimitedOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	if !ref.Complete() {
		t.Fatalf("reference run stopped early: %v", ref.Stop)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opt := unlimitedOptions(1)
	opt.Checkpoint = &CheckpointPolicy{OnStop: true}
	var firstPart []string
	opt.OnTree = func(nw string) {
		firstPart = append(firstPart, nw)
		if len(firstPart) == int(ref.StandTrees)/2 {
			cancel()
		}
	}
	part1, err := EnumerateStandContext(ctx, cons, opt)
	if err != nil {
		t.Fatal(err)
	}
	if part1.Stop != StopCancelled || part1.Checkpoint == nil {
		t.Fatalf("stop = %v, checkpoint = %v", part1.Stop, part1.Checkpoint)
	}

	var buf bytes.Buffer
	if err := part1.Checkpoint.Write(&buf); err != nil {
		t.Fatal(err)
	}
	cp, err := ReadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}

	opt2 := unlimitedOptions(1)
	opt2.Checkpoint = &CheckpointPolicy{Resume: cp}
	opt2.CollectTrees = true
	part2, err := EnumerateStand(cons, opt2)
	if err != nil {
		t.Fatal(err)
	}
	if !part2.Complete() {
		t.Fatalf("resumed run stopped early: %v", part2.Stop)
	}
	if part2.StandTrees != ref.StandTrees ||
		part2.IntermediateStates != ref.IntermediateStates ||
		part2.DeadEnds != ref.DeadEnds {
		t.Fatalf("resumed totals %d/%d/%d != uninterrupted %d/%d/%d",
			part2.StandTrees, part2.IntermediateStates, part2.DeadEnds,
			ref.StandTrees, ref.IntermediateStates, ref.DeadEnds)
	}
	// The trees seen before the cancel plus those found after the resume
	// partition the stand: no duplicates, no gaps.
	combined := append(append([]string(nil), firstPart...), part2.Trees...)
	if int64(len(combined)) != ref.StandTrees {
		t.Fatalf("combined %d trees, want %d", len(combined), ref.StandTrees)
	}
	sort.Strings(combined)
	for i := 1; i < len(combined); i++ {
		if combined[i] == combined[i-1] {
			t.Fatalf("duplicate tree across the checkpoint boundary: %s", combined[i])
		}
	}
}

// TestCheckpointParallelAllowed: parallel checkpointing — once rejected with
// a "requires Threads == 1" error — is supported: checkpoint-on-stop at
// Threads > 1 runs fine (and a run that exhausts has no checkpoint), while
// resuming a garbage checkpoint fails with a validation error, not a
// thread-count error.
func TestCheckpointParallelAllowed(t *testing.T) {
	cons := apiChainConstraints(t, 3, 3)
	opt := unlimitedOptions(2)
	opt.Checkpoint = &CheckpointPolicy{OnStop: true}
	res, err := EnumerateStandContext(context.Background(), cons, opt)
	if err != nil {
		t.Fatalf("checkpoint-on-stop with Threads > 1: %v", err)
	}
	if !res.Complete() {
		t.Fatalf("stop = %v, want exhausted", res.Stop)
	}
	if res.Checkpoint != nil {
		t.Fatal("exhausted run should not produce a checkpoint")
	}
	opt = unlimitedOptions(2)
	opt.Checkpoint = &CheckpointPolicy{Resume: &Checkpoint{}}
	if _, err := EnumerateStandContext(context.Background(), cons, opt); err == nil {
		t.Fatal("resuming an empty checkpoint should fail validation")
	}
}

// TestParentCommitCheckpointsResume: checkpoint files written by commit
// a3eaaa2 (before the scheduling set-up moved into internal/search), both
// cut by a tree limit. Its version-2 four-thread frontier still loads and
// resumes to the uninterrupted totals, at any thread count; its version-1
// serial stack, a form this release no longer reads, fails with ErrVersion.
// Threads: 0 is the regression case for Result.Threads: a frontier
// checkpoint resumed with Threads <= 0 ran one worker but reported zero.
func TestParentCommitCheckpointsResume(t *testing.T) {
	in, err := os.Open("testdata/ckpt_a3eaaa2/input.trees")
	if err != nil {
		t.Fatal(err)
	}
	cons, _, err := ReadTrees(in, nil)
	in.Close()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := EnumerateStand(cons, unlimitedOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReadCheckpointFile("testdata/ckpt_a3eaaa2/serial_v1.ckpt"); !errors.Is(err, ErrVersion) {
		t.Fatalf("serial_v1.ckpt: %v, want ErrVersion", err)
	}
	for _, threads := range []int{0, 1, 3} {
		cp, err := ReadCheckpointFile("testdata/ckpt_a3eaaa2/frontier_v2.ckpt")
		if err != nil {
			t.Fatal(err)
		}
		opt := unlimitedOptions(threads)
		opt.Checkpoint = &CheckpointPolicy{Resume: cp}
		res, err := EnumerateStand(cons, opt)
		if err != nil {
			t.Fatalf("%d threads: %v", threads, err)
		}
		if !res.Complete() || res.StandTrees != ref.StandTrees ||
			res.IntermediateStates != ref.IntermediateStates || res.DeadEnds != ref.DeadEnds {
			t.Fatalf("%d threads: %d/%d/%d (%v), uninterrupted %d/%d/%d", threads,
				res.StandTrees, res.IntermediateStates, res.DeadEnds, res.Stop,
				ref.StandTrees, ref.IntermediateStates, ref.DeadEnds)
		}
		if want := max(threads, 1); res.Threads != want {
			t.Fatalf("Threads=%d: Result.Threads = %d, want %d", threads, res.Threads, want)
		}
	}
}

// TestContextWrapperEquivalence: the non-context entrypoints are wrappers
// over the context ones — same stand either way, serial and parallel.
func TestContextWrapperEquivalence(t *testing.T) {
	cons := apiChainConstraints(t, 3, 3)
	opt := unlimitedOptions(1)
	opt.CollectTrees = true
	plain, err := EnumerateStand(cons, opt)
	if err != nil {
		t.Fatal(err)
	}
	optP := unlimitedOptions(4)
	optP.CollectTrees = true
	viaCtx, err := EnumerateStandContext(context.Background(), cons, optP)
	if err != nil {
		t.Fatal(err)
	}
	if plain.StandTrees != viaCtx.StandTrees || !plain.Complete() || !viaCtx.Complete() {
		t.Fatalf("serial %d trees (%v), parallel-via-context %d trees (%v)",
			plain.StandTrees, plain.Stop, viaCtx.StandTrees, viaCtx.Stop)
	}
	a, b := append([]string(nil), plain.Trees...), append([]string(nil), viaCtx.Trees...)
	sort.Strings(a)
	sort.Strings(b)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("stands differ at %d", i)
		}
	}
}
