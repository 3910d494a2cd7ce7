package search_test

import (
	"bytes"
	"slices"
	"testing"

	"gentrius/internal/parallel"
	"gentrius/internal/search"
	"gentrius/internal/tree"
)

// resumeSerially resumes cp on the serial runner, stops it a few states on
// and resumes the checkpoint that stop left, to the end, each checkpoint
// through its file form. It returns what the two runs counted beyond cp and
// the trees they handed to OnTrees.
func resumeSerially(t *testing.T, cons []*tree.Tree, cp *search.Checkpoint) (search.Counters, []string) {
	t.Helper()
	var trees []string
	onTrees := func(block []byte, _ int) {
		search.EachTree(string(block), func(nw string) { trees = append(trees, nw) })
	}
	first, err := search.Run(cons, search.Options{CheckEvery: 1, OnTrees: onTrees,
		Limits:     search.Limits{MaxTrees: -1, MaxStates: cp.Counters.IntermediateStates + 10, MaxTime: -1},
		Checkpoint: search.CheckpointPolicy{Resume: reread(t, cp), OnStop: true}})
	if err != nil {
		t.Fatal(err)
	}
	if first.Checkpoint == nil {
		t.Fatalf("the resumed run was not stopped (%v)", first.Stop)
	}
	if fr := first.Checkpoint.Frontier; first.Checkpoint.Version != 2 || fr == nil || fr.Threads != 1 || len(fr.Tasks) == 0 {
		t.Fatalf("the resumed run's stop left %+v", first.Checkpoint)
	}
	second, err := search.Run(cons, search.Options{Limits: unlimited, OnTrees: onTrees,
		Checkpoint: search.CheckpointPolicy{Resume: reread(t, first.Checkpoint)}})
	if err != nil {
		t.Fatal(err)
	}
	if second.Stop != search.StopExhausted {
		t.Fatalf("the second resume ended %v", second.Stop)
	}
	c := second.Counters
	c.Add(search.Counters{StandTrees: -cp.Counters.StandTrees,
		IntermediateStates: -cp.Counters.IntermediateStates, DeadEnds: -cp.Counters.DeadEnds})
	return c, trees
}

// reread is cp written to a file's bytes and read back.
func reread(t *testing.T, cp *search.Checkpoint) *search.Checkpoint {
	t.Helper()
	var buf bytes.Buffer
	if err := cp.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := search.ReadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return back
}

// TestSerialResumesFrontierCheckpoint: the serial runner resumes the frontier
// of a four-thread pool cut by a tree limit, and two shards of it (two
// slices of its tasks, each of several), to the uninterrupted run's counters
// and stand, each tree once; and the checkpoint its own stop leaves resumes
// the same way.
func TestSerialResumesFrontierCheckpoint(t *testing.T) {
	cons := sinkStand(t)
	ref, err := search.Run(cons, search.Options{InitialTree: -1, Limits: unlimited, CollectTrees: true})
	if err != nil {
		t.Fatal(err)
	}
	cut, err := parallel.Run(cons, search.Options{Threads: 4, InitialTree: -1, CollectTrees: true,
		Limits:     search.Limits{MaxTrees: ref.StandTrees / 3, MaxStates: -1, MaxTime: -1},
		Checkpoint: search.CheckpointPolicy{OnStop: true}})
	if err != nil {
		t.Fatal(err)
	}
	if cut.Checkpoint == nil || len(cut.Checkpoint.Frontier.Tasks) < 4 {
		t.Fatalf("the pool's stop (%v) left %+v: not a frontier of several tasks", cut.Stop, cut.Checkpoint)
	}
	sameStand := func(what string, c search.Counters, trees []string) {
		t.Helper()
		all := append(slices.Clone(cut.Trees), trees...)
		slices.Sort(all)
		want := slices.Clone(ref.Trees)
		slices.Sort(want)
		if c != ref.Counters || !slices.Equal(all, want) {
			t.Fatalf("%s: %+v and %d trees, the uninterrupted run %+v and %d", what, c, len(all), ref.Counters, len(want))
		}
	}

	c, trees := resumeSerially(t, cons, cut.Checkpoint)
	c.Add(cut.Counters)
	sameStand("the pool's frontier", c, trees)

	// The shards of a fleet job start from no counters: the cut holds them.
	fr := cut.Checkpoint.Frontier
	half := len(fr.Tasks) / 2
	c, trees = cut.Counters, nil
	for _, tasks := range [][]search.FrontierTask{fr.Tasks[:half], fr.Tasks[half:]} {
		sh := &search.Frontier{Prefix: fr.Prefix, Tasks: tasks}
		cp := search.NewFrontierCheckpoint(cons, cut.InitialIndex, search.OrderMinBranches, search.Counters{}, sh)
		sc, st := resumeSerially(t, cons, cp)
		c.Add(sc)
		trees = append(trees, st...)
	}
	sameStand("its shards", c, trees)
}
