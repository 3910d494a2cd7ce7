package parallel

import (
	"bytes"
	"math/rand"
	"testing"

	"gentrius/internal/search"
)

// TestHostsCheckpointOnStopByteIdentical: Run and Simulate are two hosts of
// one scheduler, so at one worker a stopping rule cuts both at the same
// point, and the checkpoints they write on the stop — the queue, then what
// the worker handed in — are the same bytes, for a fresh run stopped at half
// the stand's states and for that checkpoint resumed and stopped at three
// quarters.
func TestHostsCheckpointOnStopByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(3838))
	batch1 := search.Policy{TreeBatch: 1, StateBatch: 1, DeadEndBatch: 1}
	written := func(cp *search.Checkpoint) []byte {
		t.Helper()
		if cp == nil {
			t.Fatal("the run stopped without a checkpoint")
		}
		var buf bytes.Buffer
		if err := cp.Write(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	compared := 0
	for scen := 0; compared < 12 && scen < 300; scen++ {
		cons := randomScenario(rng, 14, 3, 4, 0.5)
		ref, err := Simulate(cons, search.Options{
			Threads: 1, InitialTree: -1, Limits: search.Limits{MaxTrees: -1, MaxStates: -1},
		}, VirtualTime{})
		if err != nil {
			t.Fatal(err)
		}
		if ref.IntermediateStates < 100 {
			continue // too small to interrupt half-way
		}
		compared++
		var resume *search.Checkpoint
		for _, limit := range []int64{ref.IntermediateStates / 2, ref.IntermediateStates * 3 / 4} {
			pool, err := Run(cons, Options{Threads: 1, InitialTree: -1, Policy: batch1,
				Limits:     search.Limits{MaxTrees: -1, MaxStates: limit, MaxTime: -1},
				Checkpoint: search.CheckpointPolicy{Resume: resume, OnStop: true}})
			if err != nil {
				t.Fatal(err)
			}
			sim, err := Simulate(cons, search.Options{
				Threads: 1, InitialTree: -1, Policy: batch1,
				Limits:     search.Limits{MaxTrees: -1, MaxStates: limit},
				Checkpoint: search.CheckpointPolicy{Resume: resume, OnStop: true},
			}, VirtualTime{})
			if err != nil {
				t.Fatal(err)
			}
			p, s := written(pool.Checkpoint), written(sim.Checkpoint)
			if !bytes.Equal(p, s) {
				t.Fatalf("scenario %d, state limit %d (resumed: %v): the pool wrote\n%s\nthe simulator\n%s",
					scen, limit, resume != nil, p, s)
			}
			resume = pool.Checkpoint
		}
	}
	if compared < 12 {
		t.Fatalf("only %d stands big enough to interrupt", compared)
	}
}
