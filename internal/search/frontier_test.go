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

	"gentrius/internal/tree"
)

// frontierSample is the frontier a serial run leaves when a state limit cuts
// it: one task, the run's stack below the initial split.
func frontierSample(t *testing.T, rng *rand.Rand) (*Checkpoint, []*tree.Tree) {
	t.Helper()
	cons := randomScenario(rng, 11, 2, 4, 0.55)
	return cutCheckpoint(t, cons, 15), cons
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
	if got.Version != checkpointVersion || got.Frontier == nil {
		t.Fatalf("round trip lost the frontier: v%d frontier=%v", got.Version, got.Frontier != nil)
	}
	if err := got.Validate(cons); err != nil {
		t.Fatal(err)
	}
	if len(got.Frontier.Tasks) != len(cp.Frontier.Tasks) {
		t.Fatalf("task count %d, want %d", len(got.Frontier.Tasks), len(cp.Frontier.Tasks))
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
	if got.Version != checkpointVersion {
		t.Fatalf("backup version %d, want %d", got.Version, checkpointVersion)
	}
}

// TestValidateVersionFrontierConsistency: the version/payload cross checks.
func TestValidateVersionFrontierConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(9494))
	cp, cons := frontierSample(t, rng)

	noFrontier := *cp
	noFrontier.Frontier = nil
	if err := noFrontier.Validate(cons); !errors.Is(err, ErrVersion) {
		t.Fatalf("no frontier: err = %v, want ErrVersion", err)
	}
	v1 := *cp
	v1.Version = 1
	if err := v1.Validate(cons); !errors.Is(err, ErrVersion) {
		t.Fatalf("version 1: err = %v, want ErrVersion", err)
	}
	if err := cp.Validate(cons); err != nil {
		t.Fatalf("valid checkpoint rejected: %v", err)
	}

	// Structurally corrupt frontier frames are rejected by Validate.
	bad := *cp
	raw, _ := json.Marshal(cp.Frontier)
	var frCopy Frontier
	if err := json.Unmarshal(raw, &frCopy); err != nil {
		t.Fatal(err)
	}
	bad.Frontier = &frCopy
	bad.Frontier.Tasks[0].Frames[0].Idx = len(bad.Frontier.Tasks[0].Frames[0].Branches) + 3
	if err := bad.Validate(cons); err == nil {
		t.Fatal("corrupt frontier frame accepted")
	}
	// Missing weights (required on stored frames) are rejected too.
	var frCopy2 Frontier
	if err := json.Unmarshal(raw, &frCopy2); err != nil {
		t.Fatal(err)
	}
	bad.Frontier = &frCopy2
	bad.Frontier.Tasks[0].Frames[0].Weight = 0
	if len(bad.Frontier.Tasks[0].Frames[0].Branches) > 0 {
		if err := bad.Validate(cons); err == nil {
			t.Fatal("weightless frame accepted")
		}
	}
}

// TestFrontierTaskMassMatchesRemainingMass: a frontier's mass is the sum of
// its tasks' masses, the mass of each task as a frontier of its own. The
// coordinator relies on it when it deals root tasks into shards and sums the
// shards' masses; a fresh run's root frontier holds the whole mass, 1.
func TestFrontierTaskMassMatchesRemainingMass(t *testing.T) {
	rng := rand.New(rand.NewSource(31337))
	cons := randomScenario(rng, 13, 3, 5, 0.55)
	su, err := Start(cons, -1, OrderMinBranches, nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(su.Frontier.Tasks) < 2 {
		t.Fatalf("the root frontier holds %d tasks, want a split", len(su.Frontier.Tasks))
	}
	if m := su.Frontier.RemainingMass(); math.Abs(m-1) > 1e-12 {
		t.Fatalf("root frontier mass %v, want 1", m)
	}
	cut := cutCheckpoint(t, cons, 15).Frontier
	for name, fr := range map[string]*Frontier{"root": su.Frontier, "cut": cut} {
		sum := 0.0
		for i := range fr.Tasks {
			sum += (&Frontier{Prefix: fr.Prefix, Tasks: fr.Tasks[i : i+1]}).RemainingMass()
		}
		if math.Abs(sum-fr.RemainingMass()) > 1e-12 {
			t.Fatalf("%s: Σ task mass %v != RemainingMass %v", name, sum, fr.RemainingMass())
		}
	}
}
