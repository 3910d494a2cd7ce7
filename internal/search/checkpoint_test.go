package search

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"gentrius/internal/terrace"
)

// runToEnd drains an engine, returning counters and collected trees.
func runToEnd(e *Engine) (Counters, []string) {
	var trees []string
	e.OnTree = func(nw string) { trees = append(trees, nw) }
	for e.Step() != EvDone {
	}
	return e.Counters(), trees
}

func TestCheckpointResumeMatchesUninterrupted(t *testing.T) {
	rng := rand.New(rand.NewSource(6060))
	for scen := 0; scen < 8; scen++ {
		cons := randomScenario(rng, 10+rng.Intn(4), 2+rng.Intn(2), 4, 0.55)
		idx := ChooseInitialTree(cons)

		// Reference: uninterrupted run.
		tRef, err := terrace.New(cons, idx)
		if err != nil {
			t.Fatal(err)
		}
		refEng := NewEngine(tRef)
		refCounters, refTrees := runToEnd(refEng)

		// Interrupted run: stop after a random number of steps, snapshot,
		// serialize, restore, finish.
		t1, err := terrace.New(cons, idx)
		if err != nil {
			t.Fatal(err)
		}
		e1 := NewEngine(t1)
		var treesA []string
		e1.OnTree = func(nw string) { treesA = append(treesA, nw) }
		stopAfter := 1 + rng.Intn(60)
		for i := 0; i < stopAfter; i++ {
			if e1.Step() == EvDone {
				break
			}
		}
		e1.FlushTrees()
		var buf bytes.Buffer
		if err := e1.Snapshot(cons, idx).Write(&buf); err != nil {
			t.Fatal(err)
		}
		cp, err := ReadCheckpoint(&buf)
		if err != nil {
			t.Fatal(err)
		}
		e2, err := Restore(cp, cons)
		if err != nil {
			t.Fatal(err)
		}
		c2, treesB := runToEnd(e2)

		if c2 != refCounters {
			t.Fatalf("scen %d: resumed counters %+v, reference %+v", scen, c2, refCounters)
		}
		all := append(append([]string(nil), treesA...), treesB...)
		if !equalStringSets(all, refTrees) {
			t.Fatalf("scen %d: pre+post checkpoint trees differ from reference (%d+%d vs %d)",
				scen, len(treesA), len(treesB), len(refTrees))
		}
	}
}

func TestCheckpointRejectsWrongInput(t *testing.T) {
	rng := rand.New(rand.NewSource(6161))
	cons := randomScenario(rng, 10, 2, 4, 0.55)
	other := randomScenario(rng, 10, 2, 4, 0.55)
	idx := ChooseInitialTree(cons)
	tr, err := terrace.New(cons, idx)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(tr)
	for i := 0; i < 5; i++ {
		e.Step()
	}
	cp := e.Snapshot(cons, idx)
	if _, err := Restore(cp, other); err == nil {
		t.Fatal("expected fingerprint mismatch")
	}
	cp.Version = 99
	if _, err := Restore(cp, cons); err == nil {
		t.Fatal("expected version error")
	}
}

func TestCheckpointCorruptFrames(t *testing.T) {
	rng := rand.New(rand.NewSource(6262))
	cons := randomScenario(rng, 10, 2, 4, 0.55)
	idx := ChooseInitialTree(cons)
	tr, _ := terrace.New(cons, idx)
	e := NewEngine(tr)
	for e.Work().Units < 10 { // ten transitions of the paper's machine in
		e.Step()
	}
	cp := e.Snapshot(cons, idx)
	if len(cp.Frames) == 0 {
		t.Skip("no frames to corrupt")
	}
	cp.Frames[0].Idx = len(cp.Frames[0].Branches) + 5
	if _, err := Restore(cp, cons); err == nil {
		t.Fatal("expected corrupt-frame error")
	}
}

func TestCheckpointJSONRoundTrip(t *testing.T) {
	cp := &Checkpoint{
		Version:     checkpointVersion,
		Fingerprint: "abc",
		Frames:      []FrameSnapshot{{Taxon: 3, Branches: []int32{1, 2}, Idx: 1, Inserted: true}},
		Counters:    Counters{StandTrees: 7},
		Started:     true,
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
	if back.Counters.StandTrees != 7 || len(back.Frames) != 1 || !back.Frames[0].Inserted {
		t.Fatalf("round trip lost data: %+v", back)
	}
	if _, err := ReadCheckpoint(strings.NewReader("{broken")); err == nil {
		t.Fatal("expected JSON error")
	}
}
