package parallel

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"gentrius/internal/search"
)

// TestSimSnapshotResumeExact: a simulated run stopped by a tree limit
// snapshots its frontier; resuming at any worker count finishes with
// counters and stand exactly equal to an uninterrupted run's.
func TestSimSnapshotResumeExact(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	cons := bigScenario(t, rng, 13, 200)
	ref, err := Simulate(cons, search.Options{Threads: 4, InitialTree: -1, CollectTrees: true}, VirtualTime{})
	if err != nil {
		t.Fatal(err)
	}
	for _, snapW := range []int{1, 4} {
		for _, resW := range []int{1, 3, 8} {
			t.Run(fmt.Sprintf("snap=%d/resume=%d", snapW, resW), func(t *testing.T) {
				res1, err := Simulate(cons, search.Options{
					Threads: snapW, InitialTree: -1,
					Limits: search.Limits{MaxTrees: ref.StandTrees / 2, MaxStates: -1},
					// Flush every transition so the limit hits mid-run.
					Policy: search.Policy{TreeBatch: 1, StateBatch: 1, DeadEndBatch: 1}, CollectTrees: true,
					Checkpoint: search.CheckpointPolicy{OnStop: true},
				}, VirtualTime{})
				if err != nil {
					t.Fatal(err)
				}
				if res1.Stop != search.StopTreeLimit || res1.Checkpoint == nil {
					t.Fatalf("stop %v, checkpoint %v", res1.Stop, res1.Checkpoint != nil)
				}
				if res1.Checkpoint.Counters != res1.Counters {
					t.Fatalf("checkpoint counters %+v != run counters %+v",
						res1.Checkpoint.Counters, res1.Counters)
				}
				res2, err := Simulate(cons, search.Options{
					Threads: resW, Limits: search.Limits{MaxTrees: -1, MaxStates: -1}, CollectTrees: true,
					Checkpoint: search.CheckpointPolicy{Resume: res1.Checkpoint},
				}, VirtualTime{})
				if err != nil {
					t.Fatal(err)
				}
				if res2.Counters != ref.Counters {
					t.Fatalf("resumed totals %+v != uninterrupted %+v", res2.Counters, ref.Counters)
				}
				combined := append(append([]string(nil), res1.Trees...), res2.Trees...)
				a, b := append([]string(nil), combined...), append([]string(nil), ref.Trees...)
				sort.Strings(a)
				sort.Strings(b)
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("pre+post stand (%d+%d) differs from reference (%d)",
						len(res1.Trees), len(res2.Trees), len(b))
				}
			})
		}
	}
}

// TestSimSnapshotDeterministic: snapshotting is part of the simulated
// schedule, so two identical interrupted runs produce identical frontier
// checkpoints, and two identical resumes produce identical results — the
// virtual-time determinism pin for the snapshot path.
func TestSimSnapshotDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	cons := bigScenario(t, rng, 12, 100)
	snap := func() *search.Checkpoint {
		res, err := Simulate(cons, search.Options{
			Threads: 4, InitialTree: -1, Limits: search.Limits{MaxTrees: 40, MaxStates: -1},
			Policy:     search.Policy{TreeBatch: 1, StateBatch: 1, DeadEndBatch: 1},
			Checkpoint: search.CheckpointPolicy{OnStop: true},
		}, VirtualTime{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Checkpoint == nil {
			t.Fatalf("no checkpoint (stop %v)", res.Stop)
		}
		return res.Checkpoint
	}
	cp1, cp2 := snap(), snap()
	if !reflect.DeepEqual(cp1, cp2) {
		t.Fatal("identical simulated runs produced different checkpoints")
	}
	run := func() *SimResult {
		res, err := Simulate(cons, search.Options{
			Threads: 3, Limits: search.Limits{MaxTrees: -1, MaxStates: -1},
			Checkpoint: search.CheckpointPolicy{Resume: cp1},
		}, VirtualTime{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	r1, r2 := run(), run()
	if r1.Counters != r2.Counters || r1.Ticks != r2.Ticks || r1.TasksStolen != r2.TasksStolen {
		t.Fatalf("resumed simulation not deterministic: %+v ticks=%d vs %+v ticks=%d",
			r1.Counters, r1.Ticks, r2.Counters, r2.Ticks)
	}
}

// TestSimResumesParallelSnapshot: the simulator consumes the same frontier
// form as the real pool — a checkpoint from either side resumes on the
// other. Here a simulated snapshot resumes under the simulator after an
// envelope round trip, proving the serialized form is sufficient.
func TestSimSnapshotEnvelopeReread(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	cons := bigScenario(t, rng, 12, 100)
	ref, err := Simulate(cons, search.Options{Threads: 2, InitialTree: -1}, VirtualTime{})
	if err != nil {
		t.Fatal(err)
	}
	res1, err := Simulate(cons, search.Options{
		Threads: 2, InitialTree: -1, Limits: search.Limits{MaxTrees: ref.StandTrees / 2, MaxStates: -1},
		Policy:     search.Policy{TreeBatch: 1, StateBatch: 1, DeadEndBatch: 1},
		Checkpoint: search.CheckpointPolicy{OnStop: true},
	}, VirtualTime{})
	if err != nil {
		t.Fatal(err)
	}
	if res1.Checkpoint == nil {
		t.Fatalf("no checkpoint (stop %v)", res1.Stop)
	}
	dir := t.TempDir()
	path := dir + "/sim.ckpt"
	if err := res1.Checkpoint.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	cp, err := search.ReadCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := Simulate(cons, search.Options{
		Threads: 5, Limits: search.Limits{MaxTrees: -1, MaxStates: -1},
		Checkpoint: search.CheckpointPolicy{Resume: cp},
	}, VirtualTime{})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Counters != ref.Counters {
		t.Fatalf("resumed totals %+v != %+v", res2.Counters, ref.Counters)
	}
}
