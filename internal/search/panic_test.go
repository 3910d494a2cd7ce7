package search

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"gentrius/internal/faultinject"
)

// TestRunPanicFailsRun: a panic in the serial runner's task — at the
// taskexec site, at the Nth engine step, or in the tree sink the task hands
// its blocks to — fails the run: no result, one *PanicError with the value
// and the stack, and a snapshot request after it answered with ErrRunEnded.
// The run's Terraces, the wrecked one included, go back to the free list, and
// the next run on the stand is whole.
func TestRunPanicFailsRun(t *testing.T) {
	cons := chainConstraints(t, 4, 4)
	ref, err := Run(cons, Options{InitialTree: -1, Limits: Limits{MaxTrees: -1, MaxStates: -1, MaxTime: -1}})
	if err != nil {
		t.Fatal(err)
	}
	sinkBoom := func([]byte, int) { panic("sink boom") }
	for _, tc := range []struct {
		name    string
		fault   *faultinject.Injector
		onTrees func([]byte, int)
		value   any
		in      string // a frame of the stack
	}{
		{"taskexec", faultinject.New(1).Set(faultinject.TaskExec, faultinject.Rule{Nth: []int64{1}}), nil,
			faultinject.Panic{Site: faultinject.TaskExec, N: 1}, "search.(*Worker).Begin"},
		{"enginestep", faultinject.New(1).Set(faultinject.EngineStep, faultinject.Rule{Nth: []int64{300}}), nil,
			faultinject.Panic{Site: faultinject.EngineStep, N: 300}, "search.(*Worker).Tick"},
		{"sink", nil, sinkBoom, "sink boom", "TestRunPanicFailsRun"},
	} {
		trig := NewCheckpointTrigger()
		res, err := Run(cons, Options{InitialTree: -1, Limits: Limits{MaxTrees: -1, MaxStates: -1, MaxTime: -1},
			Fault: tc.fault, OnTrees: tc.onTrees, Checkpoint: CheckpointPolicy{OnStop: true, Trigger: trig}})
		var pe *PanicError
		if res != nil || !errors.As(err, &pe) || pe.Value != tc.value {
			t.Fatalf("%s: Run returned %+v, %v", tc.name, res, err)
		}
		if !bytes.Contains(pe.Stack, []byte(tc.in)) {
			t.Fatalf("%s: no %s in the stack:\n%s", tc.name, tc.in, pe.Stack)
		}
		if _, err := trig.Request(context.Background()); !errors.Is(err, ErrRunEnded) {
			t.Fatalf("%s: a snapshot request after the failure: %v", tc.name, err)
		}
		again, err := Run(cons, Options{InitialTree: -1, Limits: Limits{MaxTrees: -1, MaxStates: -1, MaxTime: -1}})
		if err != nil || again.Counters != ref.Counters {
			t.Fatalf("%s: the next run: %+v, %v; want %+v", tc.name, again, err, ref.Counters)
		}
	}
}
