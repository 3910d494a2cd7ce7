package search

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"gentrius/internal/tree"
)

func sampleCheckpoint(t *testing.T, rng *rand.Rand) (*Checkpoint, []*tree.Tree) {
	t.Helper()
	cons := randomScenario(rng, 10, 2, 4, 0.55)
	return cutCheckpoint(t, cons, 10), cons
}

func TestWriteFileAtomicRotation(t *testing.T) {
	rng := rand.New(rand.NewSource(7070))
	cp, cons := sampleCheckpoint(t, rng)
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")

	if err := cp.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".bak"); !os.IsNotExist(err) {
		t.Fatalf("first write should not create a backup: %v", err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatal("temp file left behind")
	}

	// Second write rotates the first to .bak; both must load and restore.
	cp2 := *cp
	cp2.Counters.StandTrees += 5
	if err := cp2.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Counters.StandTrees != cp2.Counters.StandTrees {
		t.Fatalf("primary has StandTrees %d, want %d", got.Counters.StandTrees, cp2.Counters.StandTrees)
	}
	bak, err := readCheckpointPath(path + ".bak")
	if err != nil {
		t.Fatal(err)
	}
	if bak.Counters.StandTrees != cp.Counters.StandTrees {
		t.Fatalf("backup has StandTrees %d, want %d", bak.Counters.StandTrees, cp.Counters.StandTrees)
	}
	if _, err := Start(cons, -1, OrderMinBranches, nil, got, 1); err != nil {
		t.Fatalf("restore from file round trip: %v", err)
	}
}

func TestReadCheckpointFileFallsBackToBak(t *testing.T) {
	rng := rand.New(rand.NewSource(7171))
	cp, _ := sampleCheckpoint(t, rng)
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	if err := cp.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if err := cp.WriteFile(path); err != nil { // creates .bak
		t.Fatal(err)
	}

	// Tear the primary mid-file: load must detect it and use the backup.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCheckpointFile(path)
	if err != nil {
		t.Fatalf("fallback to .bak failed: %v", err)
	}
	if got.Counters != cp.Counters {
		t.Fatalf("backup counters %+v, want %+v", got.Counters, cp.Counters)
	}

	// With the backup also gone the primary's error surfaces.
	if err := os.Remove(path + ".bak"); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadCheckpointFile(path); err == nil {
		t.Fatal("torn primary with no backup should fail")
	}
}

func TestReadCheckpointDetectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(7272))
	cp, _ := sampleCheckpoint(t, rng)
	data, err := cp.encode()
	if err != nil {
		t.Fatal(err)
	}

	// Flip a byte inside the payload; the envelope still parses as JSON
	// (digit -> digit) but the CRC must catch it.
	corrupt := append([]byte(nil), data...)
	start := bytes.Index(corrupt, []byte(`"payload":`))
	if start < 0 {
		t.Fatal("no payload field in envelope")
	}
	flipped := false
	for i := start; i < len(corrupt); i++ {
		if corrupt[i] >= '1' && corrupt[i] <= '8' {
			corrupt[i]++
			flipped = true
			break
		}
	}
	if !flipped {
		t.Fatal("no byte to flip")
	}
	if _, err := decodeCheckpoint(corrupt); !errors.Is(err, ErrChecksum) {
		t.Fatalf("corrupted payload: got %v, want ErrChecksum", err)
	}

	// Unknown envelope format.
	if _, err := decodeCheckpoint([]byte(`{"format":99,"crc32":0,"payload":{}}`)); !errors.Is(err, ErrVersion) {
		t.Fatalf("unknown format: got %v, want ErrVersion", err)
	}
}

// legacyBareJSON is a pre-envelope checkpoint file: bare Checkpoint JSON.
const legacyBareJSON = `{"version":1,"fingerprint":"abc","initial_index":0,"heuristic":0,` +
	`"frames":null,"counters":{},"done":false,"started":true}`

func TestReadCheckpointLegacyBareJSON(t *testing.T) {
	// Pre-envelope files are an older release's: this one reads none.
	if _, err := decodeCheckpoint([]byte(legacyBareJSON)); !errors.Is(err, ErrVersion) {
		t.Fatalf("legacy bare JSON: got %v, want ErrVersion", err)
	}
}

func TestRestoreTypedErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(7373))
	cp, cons := sampleCheckpoint(t, rng)
	other := randomScenario(rng, 10, 2, 4, 0.55)

	if _, err := Start(other, -1, OrderMinBranches, nil, cp, 1); !errors.Is(err, ErrFingerprint) {
		t.Fatalf("wrong input: got %v, want ErrFingerprint", err)
	}
	bad := *cp
	bad.Version = 99
	if _, err := Start(cons, -1, OrderMinBranches, nil, &bad, 1); !errors.Is(err, ErrVersion) {
		t.Fatalf("wrong version: got %v, want ErrVersion", err)
	}
}

func TestPeriodicCheckpointResumeEquality(t *testing.T) {
	rng := rand.New(rand.NewSource(7474))
	cons := randomScenario(rng, 18, 3, 6, 0.5) // 805 trees, 28 checks at CheckEvery 64

	ref, err := Run(cons, Options{Limits: Limits{MaxTrees: -1, MaxStates: -1, MaxTime: -1}})
	if err != nil {
		t.Fatal(err)
	}

	// Run with frequent periodic checkpoints and cancel partway through;
	// resuming from the last periodic snapshot must land on the reference
	// counters exactly (a nanosecond has always passed: a snapshot at every
	// check).
	ctx, cancel := context.WithCancel(context.Background())
	var last *Checkpoint
	snaps := 0
	interrupted, err := Run(cons, Options{
		Limits:     Limits{MaxTrees: -1, MaxStates: -1, MaxTime: -1},
		CheckEvery: 64,
		Ctx:        ctx,
		Checkpoint: CheckpointPolicy{Interval: time.Nanosecond, Sink: func(cp *Checkpoint) {
			last = cp
			if snaps++; snaps == 3 {
				cancel()
			}
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if interrupted.Stop != StopCancelled {
		t.Fatalf("stop %v, want cancelled: scenario too small to interrupt", interrupted.Stop)
	}
	if snaps != 3 {
		t.Fatalf("%d periodic checkpoints delivered before the cancel took, want 3", snaps)
	}

	resumed, err := Run(cons, Options{
		Limits:     Limits{MaxTrees: -1, MaxStates: -1, MaxTime: -1},
		Checkpoint: CheckpointPolicy{Resume: last},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Counters != ref.Counters {
		t.Fatalf("resumed counters %+v, reference %+v", resumed.Counters, ref.Counters)
	}
}

func TestPeriodicCheckpointRejectsStaticOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7575))
	cons := randomScenario(rng, 10, 2, 4, 0.55)
	_, err := Run(cons, Options{
		DisableDynamicOrder: true,
		Checkpoint:          CheckpointPolicy{Interval: time.Nanosecond, Sink: func(*Checkpoint) {}},
	})
	if err == nil {
		t.Fatal("static order with periodic checkpoints should be rejected")
	}
}
