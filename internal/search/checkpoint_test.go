package search

import (
	"bytes"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"gentrius/internal/tree"
)

// cutCheckpoint is the frontier a serial run of cons leaves at its k-th
// check, one unit apart (at its last, on a shorter run): what is left of the
// stand there. A run with no check has nothing left: its frontier is empty.
func cutCheckpoint(t *testing.T, cons []*tree.Tree, k int) *Checkpoint {
	t.Helper()
	var cuts []*Checkpoint
	res, err := Run(cons, Options{InitialTree: -1, CheckEvery: 1,
		Limits:     Limits{MaxTrees: -1, MaxStates: -1, MaxTime: -1},
		Checkpoint: CheckpointPolicy{Interval: time.Nanosecond, Sink: func(cp *Checkpoint) { cuts = append(cuts, cp) }}})
	if err != nil {
		t.Fatal(err)
	}
	if len(cuts) == 0 {
		return NewFrontierCheckpoint(cons, res.InitialIndex, OrderMinBranches, res.Counters, &Frontier{})
	}
	return cuts[min(k, len(cuts))-1]
}

// engineCheckpoint is a raw engine's state as a frontier of one task, its
// stack, under an empty prefix.
func engineCheckpoint(e *Engine, cons []*tree.Tree, idx int) *Checkpoint {
	return NewFrontierCheckpoint(cons, idx, e.Heuristic, e.counters,
		&Frontier{Threads: 1, Tasks: []FrontierTask{{Frames: e.SnapshotFrames(nil)}}})
}

func TestCheckpointResumeMatchesUninterrupted(t *testing.T) {
	rng := rand.New(rand.NewSource(6060))
	unlimited := Limits{MaxTrees: -1, MaxStates: -1, MaxTime: -1}
	for scen := 0; scen < 8; scen++ {
		cons := randomScenario(rng, 10+rng.Intn(4), 2+rng.Intn(2), 4, 0.55)

		// Reference: uninterrupted run.
		ref, err := Run(cons, Options{InitialTree: -1, Limits: unlimited, CollectTrees: true})
		if err != nil {
			t.Fatal(err)
		}
		if ref.IntermediateStates < 4 {
			continue
		}

		// Interrupted run: stopped by a state limit at a random check,
		// snapshot on stop, serialize, resume, finish.
		first, err := Run(cons, Options{InitialTree: -1, CheckEvery: 1, CollectTrees: true,
			Limits:     Limits{MaxTrees: -1, MaxStates: 1 + rng.Int63n(ref.IntermediateStates/2), MaxTime: -1},
			Checkpoint: CheckpointPolicy{OnStop: true}})
		if err != nil {
			t.Fatal(err)
		}
		if first.Checkpoint == nil {
			t.Fatalf("scen %d: the run was not cut (%v)", scen, first.Stop)
		}
		var buf bytes.Buffer
		if err := first.Checkpoint.Write(&buf); err != nil {
			t.Fatal(err)
		}
		cp, err := ReadCheckpoint(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if cp.Version != checkpointVersion {
			t.Fatalf("scen %d: a serial run wrote version %d", scen, cp.Version)
		}
		second, err := Run(cons, Options{Limits: unlimited, CollectTrees: true, Checkpoint: CheckpointPolicy{Resume: cp}})
		if err != nil {
			t.Fatal(err)
		}

		if second.Counters != ref.Counters {
			t.Fatalf("scen %d: resumed counters %+v, reference %+v", scen, second.Counters, ref.Counters)
		}
		if all := append(first.Trees, second.Trees...); !slices.Equal(all, ref.Trees) {
			t.Fatalf("scen %d: pre+post checkpoint trees differ from reference (%d+%d vs %d)",
				scen, len(first.Trees), len(second.Trees), len(ref.Trees))
		}
	}
}

func TestCheckpointRejectsWrongInput(t *testing.T) {
	rng := rand.New(rand.NewSource(6161))
	cons := randomScenario(rng, 10, 2, 4, 0.55)
	other := randomScenario(rng, 10, 2, 4, 0.55)
	cp := cutCheckpoint(t, cons, 5)
	if _, err := Run(other, Options{Checkpoint: CheckpointPolicy{Resume: cp}}); err == nil {
		t.Fatal("expected fingerprint mismatch")
	}
	cp.Version = 99
	if _, err := Run(cons, Options{Checkpoint: CheckpointPolicy{Resume: cp}}); err == nil {
		t.Fatal("expected version error")
	}
}

func TestCheckpointCorruptFrames(t *testing.T) {
	rng := rand.New(rand.NewSource(6262))
	cons := randomScenario(rng, 10, 2, 4, 0.55)
	cp := cutCheckpoint(t, cons, 5)
	f := &cp.Frontier.Tasks[0].Frames[0]
	f.Idx = len(f.Branches) + 5
	if _, err := Run(cons, Options{Checkpoint: CheckpointPolicy{Resume: cp}}); err == nil {
		t.Fatal("expected corrupt-frame error")
	}
}

func TestCheckpointJSONRoundTrip(t *testing.T) {
	cp := &Checkpoint{
		Version:     checkpointVersion,
		Fingerprint: "abc",
		Frontier: &Frontier{Tasks: []FrontierTask{{
			Frames: []FrameSnapshot{{Taxon: 3, Branches: []int32{1, 2}, Idx: 1, Inserted: true, Weight: 0.5}}}}},
		Counters: Counters{StandTrees: 7},
	}
	var buf bytes.Buffer
	if err := cp.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "\"fingerprint\":\"abc\"") {
		t.Fatalf("unexpected JSON: %s", buf.String())
	}
	back, err := ReadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Counters.StandTrees != 7 || len(back.Frontier.Tasks) != 1 || !back.Frontier.Tasks[0].Frames[0].Inserted {
		t.Fatalf("round trip lost data: %+v", back)
	}
	if _, err := ReadCheckpoint(strings.NewReader("{broken")); err == nil {
		t.Fatal("expected JSON error")
	}
}
