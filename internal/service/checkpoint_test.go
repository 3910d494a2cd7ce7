package service

import (
	"context"
	"errors"
	"fmt"
	"os"
	"testing"
	"time"

	"gentrius"
)

// chainRequest is hugeRequest's two interleaved caterpillars at n taxa a
// chain: a stand that grows quickly with n and is exhausted in the end.
func chainRequest(n int) JobRequest {
	cat := func(prefix string) string {
		s := "(A,B)"
		for i := 0; i < n; i++ {
			s = "(" + s + "," + fmt.Sprintf("%s%d", prefix, i) + ")"
		}
		return "((" + s + ",C),D);"
	}
	return JobRequest{Trees: []string{cat("x"), cat("y")}, MaxTrees: -1, MaxStates: -1, MaxTimeSeconds: -1}
}

// TestCheckpointRequestRacesJobEnd: an on-demand checkpoint whose write a
// ckptwrite fault pushes behind the end of its job's run is written, if at
// all, while the job still runs — never recorded against, or over the
// checkpoint of, a job that has finished. The failed first attempt's retry
// is held until the run has ended (the trigger reports ErrRunEnded) and
// then until the job is terminal, or for long enough that a finish which
// does not wait for the write would have made it so.
//
//   - A job that exhausts its stand keeps no checkpoint: its status names
//     none, none is on disk, and a restart adopts it without one.
//   - A cancelled job keeps its on-stop checkpoint, which has the job's
//     final counters, not the on-demand one's.
func TestCheckpointRequestRacesJobEnd(t *testing.T) {
	for _, c := range []struct {
		name    string
		faults  string
		req     JobRequest
		threads int
		onStop  bool
	}{
		// 1 683 trees, every fourth stalled on its way to the spool of a serial run.
		{"exhausted", "ckptwrite.nth=1;treestream.every=4;treestream.delay=1ms", chainRequest(5), 1, false},
		{"cancelled", "ckptwrite.nth=1", hugeRequest(), 2, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			fault, err := gentrius.ParseFaults(c.faults)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			m := newTestManager(t, Config{Workers: 1, DataDir: dir, Checkpoint: c.onStop, Fault: fault})
			var job *Job
			m.ckpt.Sleep = func(time.Duration) {
				if c.onStop {
					m.Cancel(job.ID())
				}
				job.mu.Lock()
				trig := job.trigger
				job.mu.Unlock()
				for {
					if _, err := trig.Request(context.Background()); errors.Is(err, gentrius.ErrRunEnded) {
						break
					}
				}
				select {
				case <-job.Done():
				case <-time.After(200 * time.Millisecond):
				}
			}
			c.req.Threads = c.threads
			job, err = m.Submit(c.req)
			if err != nil {
				t.Fatal(err)
			}
			waitSpooled(t, job)
			if _, err := m.RequestCheckpoint(context.Background(), job.ID()); err != nil &&
				!errors.Is(err, ErrNotRunning) {
				t.Fatal(err)
			}
			waitDone(t, job)
			st := job.Status()
			if c.onStop {
				if st.State != StateCancelled || st.CheckpointFile == "" {
					t.Fatalf("cancelled job %+v, want its on-stop checkpoint", st)
				}
				cp, err := gentrius.ReadCheckpointFile(st.CheckpointFile)
				if err != nil {
					t.Fatal(err)
				}
				if cp.Counters.StandTrees != st.StandTrees || cp.Counters.IntermediateStates != st.Intermediate {
					t.Fatalf("the checkpoint counts %+v, the cancelled job %d trees, %d states: an older snapshot overwrote the on-stop one",
						cp.Counters, st.StandTrees, st.Intermediate)
				}
				return
			}
			if st.State != StateDone || !st.Complete || st.CheckpointFile != "" {
				t.Fatalf("exhausted job %+v, want done with no checkpoint", st)
			}
			if _, err := os.Stat(dir + "/" + job.ID() + ".ckpt"); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("an exhausted job's checkpoint is on disk: %v", err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if err := m.Shutdown(ctx); err != nil {
				t.Fatal(err)
			}
			m2 := newTestManager(t, Config{Workers: 1, DataDir: dir})
			if got, ok := m2.Get(job.ID()); !ok || got.Status().State != StateDone || got.Status().CheckpointFile != "" {
				t.Fatalf("restart adopted %v: %+v", ok, got.Status())
			}
		})
	}
}
