package search

import (
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gentrius/internal/terrace"
	"gentrius/internal/tree"
)

// frontierSample is the frontier a serial run leaves when a state limit cuts
// it: one task, the run's stack below the initial split.
func frontierSample(t *testing.T, rng *rand.Rand) (*Checkpoint, []*tree.Tree) {
	t.Helper()
	cons := randomScenario(rng, 11, 2, 4, 0.55)
	return cutCheckpoint(t, cons, 15), cons
}

func TestFrontierViewV1Derivation(t *testing.T) {
	rng := rand.New(rand.NewSource(9090))
	cons := randomScenario(rng, 11, 2, 4, 0.55)
	idx := ChooseInitialTree(cons)
	tr, err := terrace.New(cons, idx)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(tr)
	for i := 0; i < 25; i++ {
		if e.Step() == EvDone {
			t.Skip("scenario exhausted before the snapshot point")
		}
	}
	cp := v1Snapshot(e, cons, idx)
	fr, err := cp.FrontierView()
	if err != nil {
		t.Fatal(err)
	}
	if len(fr.Tasks) != 1 {
		t.Fatalf("v1 view should synthesize one task, got %d", len(fr.Tasks))
	}
	// Weights are re-derived top-down: w_i = w_{i-1} / len(branches_i).
	parentW := 1.0
	for i, f := range fr.Tasks[0].Frames {
		want := 0.0
		if len(f.Branches) > 0 {
			want = parentW / float64(len(f.Branches))
		}
		if math.Abs(f.Weight-want) > 1e-12 {
			t.Fatalf("frame %d weight %v, want %v", i, f.Weight, want)
		}
		parentW = want
	}
	if rem := fr.RemainingMass(); rem <= 0 || rem > 1+1e-9 {
		t.Fatalf("remaining mass %v out of (0,1]", rem)
	}

	// A done checkpoint views as an empty frontier.
	done := *cp
	done.Done = true
	dfr, err := done.FrontierView()
	if err != nil {
		t.Fatal(err)
	}
	if len(dfr.Tasks) != 0 {
		t.Fatalf("done checkpoint should view as empty frontier, got %d tasks", len(dfr.Tasks))
	}
}

func TestFrontierCheckpointRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9191))
	cp, cons := frontierSample(t, rng)
	dir := t.TempDir()
	path := filepath.Join(dir, "frontier.ckpt")
	if err := cp.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != checkpointVersionFrontier || got.Frontier == nil {
		t.Fatalf("round trip lost the frontier: v%d frontier=%v", got.Version, got.Frontier != nil)
	}
	if err := got.Validate(cons); err != nil {
		t.Fatal(err)
	}
	fr, err := got.FrontierView()
	if err != nil {
		t.Fatal(err)
	}
	if len(fr.Tasks) != len(cp.Frontier.Tasks) {
		t.Fatalf("task count %d, want %d", len(fr.Tasks), len(cp.Frontier.Tasks))
	}
	// The file resumes a serial run to the uninterrupted counters.
	unlimited := Limits{MaxTrees: -1, MaxStates: -1, MaxTime: -1}
	ref, err := Run(cons, Options{InitialTree: -1, Limits: unlimited})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(cons, Options{Limits: unlimited, Checkpoint: CheckpointPolicy{Resume: got}})
	if err != nil || res.Counters != ref.Counters {
		t.Fatalf("the serial run resumed from the file: %v, %+v; uninterrupted %+v", err, res, ref.Counters)
	}
}

// TestFrontierCorruptionFallsBackToBak: a corrupted frontier section in the
// primary file surfaces as ErrChecksum and ReadCheckpointFile falls back to
// the intact .bak rotation.
func TestFrontierCorruptionFallsBackToBak(t *testing.T) {
	rng := rand.New(rand.NewSource(9292))
	cp, _ := frontierSample(t, rng)
	dir := t.TempDir()
	path := filepath.Join(dir, "frontier.ckpt")
	if err := cp.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if err := cp.WriteFile(path); err != nil { // rotates a .bak
		t.Fatal(err)
	}
	// Flip bytes inside the frontier payload: the CRC must catch it.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	i := strings.Index(s, `"frontier"`)
	if i < 0 {
		t.Fatal("no frontier section in the encoded file")
	}
	corrupted := []byte(strings.Replace(s, `"frontier"`, `"frXntier"`, 1))
	if err := os.WriteFile(path, corrupted, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readCheckpointPath(path); !errors.Is(err, ErrChecksum) {
		t.Fatalf("corrupted primary: err = %v, want ErrChecksum", err)
	}
	got, err := ReadCheckpointFile(path)
	if err != nil {
		t.Fatalf("fallback to .bak failed: %v", err)
	}
	if got.Frontier == nil || len(got.Frontier.Tasks) != len(cp.Frontier.Tasks) {
		t.Fatal("backup did not preserve the frontier")
	}
}

// TestUnsupportedPayloadVersionFallsBackToBak: a payload version beyond
// what this build understands (e.g. from a future release) is a typed
// ErrVersion, and the .bak rotation is consulted.
func TestUnsupportedPayloadVersionFallsBackToBak(t *testing.T) {
	rng := rand.New(rand.NewSource(9393))
	cp, _ := frontierSample(t, rng)
	dir := t.TempDir()
	path := filepath.Join(dir, "frontier.ckpt")
	if err := cp.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if err := cp.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	// Re-encode the primary with a from-the-future payload version and a
	// valid CRC, so only the version check can reject it.
	future := *cp
	future.Version = 99
	data, err := future.encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readCheckpointPath(path); !errors.Is(err, ErrVersion) {
		t.Fatalf("future payload version: err = %v, want ErrVersion", err)
	}
	got, err := ReadCheckpointFile(path)
	if err != nil {
		t.Fatalf("fallback to .bak failed: %v", err)
	}
	if got.Version != checkpointVersionFrontier {
		t.Fatalf("backup version %d, want %d", got.Version, checkpointVersionFrontier)
	}
}

// TestValidateVersionFrontierConsistency: the version/payload cross checks.
func TestValidateVersionFrontierConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(9494))
	cp, cons := frontierSample(t, rng)

	v2NoFrontier := *cp
	v2NoFrontier.Frontier = nil
	if err := v2NoFrontier.Validate(cons); !errors.Is(err, ErrVersion) {
		t.Fatalf("v2 without frontier: err = %v, want ErrVersion", err)
	}
	v1WithFrontier := *cp
	v1WithFrontier.Version = checkpointVersion
	if err := v1WithFrontier.Validate(cons); !errors.Is(err, ErrVersion) {
		t.Fatalf("v1 with frontier: err = %v, want ErrVersion", err)
	}
	if err := cp.Validate(cons); err != nil {
		t.Fatalf("valid checkpoint rejected: %v", err)
	}

	// Structurally corrupt frontier frames are rejected by FrontierView.
	bad := *cp
	raw, _ := json.Marshal(cp.Frontier)
	var frCopy Frontier
	if err := json.Unmarshal(raw, &frCopy); err != nil {
		t.Fatal(err)
	}
	bad.Frontier = &frCopy
	bad.Frontier.Tasks[0].Frames[0].Idx = len(bad.Frontier.Tasks[0].Frames[0].Branches) + 3
	if _, err := bad.FrontierView(); err == nil {
		t.Fatal("corrupt frontier frame accepted")
	}
	// Missing weights (required on stored v2 frames) are rejected too.
	var frCopy2 Frontier
	if err := json.Unmarshal(raw, &frCopy2); err != nil {
		t.Fatal(err)
	}
	bad.Frontier = &frCopy2
	bad.Frontier.Tasks[0].Frames[0].Weight = 0
	if len(bad.Frontier.Tasks[0].Frames[0].Branches) > 0 {
		if _, err := bad.FrontierView(); err == nil {
			t.Fatal("weightless v2 frame accepted")
		}
	}
}
