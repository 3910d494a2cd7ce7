package parallel

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"gentrius/internal/search"
)

// TestTriggerFinishNeverHangs is the regression test for the
// RequestCheckpoint vs job-completion race: a trigger request can land in
// the instant between the control loop's last poll and Run's return.
// Before CheckpointTrigger.Finish existed, such a request blocked forever
// on the unbuffered request channel (and the HTTP handler with it). Hammer
// the window from several requesters while runs finish naturally and via
// cancellation; every Request must return — a snapshot, ErrRunEnded, or the
// requester's context error — and never hang. Run with -race.
func TestTriggerFinishNeverHangs(t *testing.T) {
	rng := rand.New(rand.NewSource(1812))
	cons := randomScenario(rng, 10, 2, 4, 0.55)

	for iter := 0; iter < 40; iter++ {
		trig := search.NewCheckpointTrigger()
		runCtx, cancelRun := context.WithCancel(context.Background())

		runDone := make(chan struct{})
		go func() {
			defer close(runDone)
			_, err := Run(cons, Options{
				Threads:     2,
				InitialTree: -1,
				Ctx:         runCtx,
				Checkpoint:  search.CheckpointPolicy{Trigger: trig},
			})
			if err != nil {
				t.Error(err)
			}
		}()

		var wg sync.WaitGroup
		for r := 0; r < 4; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				for {
					ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
					cp, err := trig.Request(ctx)
					cancel()
					switch {
					case err == nil:
						if cp == nil {
							t.Error("nil checkpoint with nil error")
							return
						}
					case errors.Is(err, search.ErrRunEnded):
						return // the run is over: the race window behaved
					case errors.Is(err, context.DeadlineExceeded):
						t.Error("trigger request hung past the run's end")
						return
					default:
						t.Errorf("unexpected trigger error: %v", err)
						return
					}
				}
			}(r)
		}

		// Half the iterations end by cancellation mid-run, half exhaust.
		if iter%2 == 0 {
			time.Sleep(time.Duration(rng.Intn(400)) * time.Microsecond)
			cancelRun()
		}
		<-runDone
		cancelRun()
		wg.Wait()
	}
}

// TestTriggerFinishSerial covers the serial engine's poll boundary the same
// way: requests racing search.Run's return must resolve to ErrRunEnded.
func TestTriggerFinishSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(4711))
	cons := randomScenario(rng, 9, 2, 4, 0.55)
	for iter := 0; iter < 40; iter++ {
		trig := search.NewCheckpointTrigger()
		runDone := make(chan struct{})
		go func() {
			defer close(runDone)
			if _, err := search.Run(cons, search.Options{
				InitialTree: -1, CheckEvery: 8, Checkpoint: search.CheckpointPolicy{Trigger: trig},
			}); err != nil {
				t.Error(err)
			}
		}()
		for {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			_, err := trig.Request(ctx)
			cancel()
			if err == nil {
				continue
			}
			if errors.Is(err, search.ErrRunEnded) {
				break
			}
			t.Fatalf("serial trigger request: %v", err)
		}
		<-runDone
	}
}
