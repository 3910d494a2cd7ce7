package parallel

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"time"

	"gentrius/internal/faultinject"
	"gentrius/internal/obs"
	"gentrius/internal/search"
)

// TestPanicRecoveryExactCounters is the ISSUE's acceptance criterion: with
// a worker panic injected every 50 task executions, a parallel run must
// finish with stand-tree/intermediate/dead-end counters identical to a
// fault-free run — and the recovery must also preserve the stand itself
// and counter conservation.
func TestPanicRecoveryExactCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(8080))
	for scen := 0; scen < 6; scen++ {
		cons := randomScenario(rng, 11+rng.Intn(4), 2+rng.Intn(2), 4, 0.5)
		ref, err := Run(cons, Options{Threads: 8, InitialTree: -1, Limits: unlimited(), CollectTrees: true})
		if err != nil {
			t.Fatal(err)
		}

		for _, tc := range []struct {
			name    string
			every   int64
			retries int
		}{
			{"every-50", 50, 0},  // the acceptance-criterion cadence
			{"every-3", 3, 1000}, // dense faults: most tasks panic at least once
		} {
			reg := obs.NewRegistry()
			m := obs.NewSchedMetrics(reg)
			m.EnsureWorkers(8)
			inj := faultinject.New(42).Set(faultinject.TaskExec, faultinject.Rule{Every: tc.every})
			par, err := Run(cons, Options{
				Threads:        8,
				InitialTree:    -1,
				Limits:         unlimited(),
				CollectTrees:   true,
				Fault:          inj,
				MaxTaskRetries: tc.retries,
				Obs:            &obs.Sink{Metrics: m},
			})
			if err != nil {
				t.Fatalf("scen %d %s: %v", scen, tc.name, err)
			}
			if par.Counters != ref.Counters {
				t.Fatalf("scen %d %s: counters %+v, fault-free %+v (panics %d)",
					scen, tc.name, par.Counters, ref.Counters, inj.Fired(faultinject.TaskExec))
			}
			ps, rs := sortedCopy(par.Trees), sortedCopy(ref.Trees)
			if len(ps) != len(rs) {
				t.Fatalf("scen %d %s: %d trees vs %d", scen, tc.name, len(ps), len(rs))
			}
			for i := range ps {
				if ps[i] != rs[i] {
					t.Fatalf("scen %d %s: stands differ", scen, tc.name)
				}
			}
			// Counter conservation: Prefix + per-worker totals == Counters.
			sum := par.Prefix
			for _, c := range par.PerWorker {
				sum.Add(c)
			}
			if sum != par.Counters {
				t.Fatalf("scen %d %s: conservation broken: %+v != %+v", scen, tc.name, sum, par.Counters)
			}
			if fired := inj.Fired(faultinject.TaskExec); fired > 0 {
				snap := reg.Snapshot()
				if got := int64(snap["gentrius_worker_panics_recovered_total"]); got != fired {
					t.Fatalf("scen %d %s: panic metric %d, injector fired %d", scen, tc.name, got, fired)
				}
			}
		}
	}
}

// TestPanicBudgetExhaustedFailsRun: a task that panics on every execution
// must fail the run with a structured *WorkerPanicError carrying the stack,
// after budget+1 attempts.
func TestPanicBudgetExhaustedFailsRun(t *testing.T) {
	rng := rand.New(rand.NewSource(8181))
	cons := randomScenario(rng, 12, 2, 4, 0.5)
	inj := faultinject.New(1).Set(faultinject.TaskExec, faultinject.Rule{Every: 1}) // every execution
	_, err := Run(cons, Options{
		Threads:        4,
		InitialTree:    -1,
		Limits:         unlimited(),
		Fault:          inj,
		MaxTaskRetries: 2,
	})
	if err == nil {
		t.Fatal("run with unrecoverable task should fail")
	}
	var wpe *WorkerPanicError
	if !errors.As(err, &wpe) {
		t.Fatalf("error %T (%v), want *WorkerPanicError", err, err)
	}
	if wpe.Attempts != 3 { // budget 2 → 3 executions of the doomed task
		t.Fatalf("attempts %d, want 3", wpe.Attempts)
	}
	if len(wpe.Stack) == 0 || !strings.Contains(string(wpe.Stack), "goroutine") {
		t.Fatalf("stack missing: %q", wpe.Stack)
	}
	if _, ok := wpe.Value.(faultinject.Panic); !ok {
		t.Fatalf("panic value %T, want faultinject.Panic", wpe.Value)
	}
}

// TestMidEnginePanicFailsRun: a panic landing after the attempt has
// published progress (counter flushes with batch size 1, streamed trees,
// submitted sub-tasks) must not be requeued — retrying would re-count the
// flushed portion and duplicate trees — so the run fails with a
// *WorkerPanicError marked Dirty despite a generous retry budget.
func TestMidEnginePanicFailsRun(t *testing.T) {
	rng := rand.New(rand.NewSource(8484))
	cons := randomScenario(rng, 12, 2, 4, 0.5)
	inj := faultinject.New(9).Set(faultinject.EngineStep, faultinject.Rule{Every: 60})
	_, err := Run(cons, Options{
		Threads:     1, // single worker: deterministic step sequence
		InitialTree: -1,
		Limits:      unlimited(),
		// Flush every step, so by occurrence 60 the attempt is dirty.
		Policy:         search.Policy{TreeBatch: 1, StateBatch: 1, DeadEndBatch: 1},
		Fault:          inj,
		MaxTaskRetries: 1 << 20,
	})
	var wpe *WorkerPanicError
	if !errors.As(err, &wpe) {
		t.Fatalf("error %T (%v), want *WorkerPanicError", err, err)
	}
	if !wpe.Dirty {
		t.Fatal("mid-engine panic after flushed progress must escalate as dirty")
	}
	if wpe.Attempts != 1 {
		t.Fatalf("attempts %d, want 1 (dirty panics must not retry)", wpe.Attempts)
	}
	if _, ok := wpe.Value.(faultinject.Panic); !ok {
		t.Fatalf("panic value %T, want faultinject.Panic", wpe.Value)
	}
}

// TestNoRetryModeFailsFast: MaxTaskRetries < 0 turns the first panic fatal.
func TestNoRetryModeFailsFast(t *testing.T) {
	rng := rand.New(rand.NewSource(8282))
	cons := randomScenario(rng, 12, 2, 4, 0.5)
	inj := faultinject.New(1).Set(faultinject.TaskExec, faultinject.Rule{Nth: []int64{2}})
	_, err := Run(cons, Options{
		Threads:        4,
		InitialTree:    -1,
		Limits:         unlimited(),
		Fault:          inj,
		MaxTaskRetries: -1,
	})
	var wpe *WorkerPanicError
	if !errors.As(err, &wpe) {
		t.Fatalf("error %v, want *WorkerPanicError", err)
	}
	if wpe.Attempts != 1 {
		t.Fatalf("attempts %d, want 1", wpe.Attempts)
	}
}

// TestFailedRunEmptiesQueueGauge: a run that fails on its first task still
// has the other shares queued when it returns; the queue-depth gauge, which
// -progress and a daemon's /metrics read between runs, must say 0 all the same.
func TestFailedRunEmptiesQueueGauge(t *testing.T) {
	rng := rand.New(rand.NewSource(8282))
	cons := randomScenario(rng, 12, 2, 4, 0.5)
	m := obs.NewSchedMetrics(obs.NewRegistry())
	_, err := Run(cons, Options{
		Threads:        4,
		InitialTree:    -1,
		Limits:         unlimited(),
		Fault:          faultinject.New(1).Set(faultinject.TaskExec, faultinject.Rule{Every: 1}),
		MaxTaskRetries: -1,
		Obs:            &obs.Sink{Metrics: m},
	})
	var wpe *WorkerPanicError
	if !errors.As(err, &wpe) {
		t.Fatalf("error %v, want *WorkerPanicError", err)
	}
	if got := m.QueueDepth.Value(); got != 0 {
		t.Fatalf("gentrius_task_queue_depth = %d after the run failed, want 0", got)
	}
}

// TestSlowConsumerStall: a slow tree consumer — the treestream stall site in
// OnTree — must slow the run down, not break it: counters and the stand stay
// exact.
func TestSlowConsumerStall(t *testing.T) {
	rng := rand.New(rand.NewSource(8383))
	cons := randomScenario(rng, 12, 2, 4, 0.5)
	ref, err := Run(cons, Options{Threads: 4, InitialTree: -1, Limits: unlimited(), CollectTrees: true})
	if err != nil {
		t.Fatal(err)
	}
	if ref.StandTrees < 4 {
		t.Skip("stand too small to exercise streaming")
	}
	inj := faultinject.New(7).Set(faultinject.TreeStream,
		faultinject.Rule{Every: 2, Delay: 2 * time.Millisecond, Limit: 20})
	var streamed int64
	par, err := Run(cons, Options{
		Threads:      4,
		InitialTree:  -1,
		Limits:       unlimited(),
		CollectTrees: true,
		OnTree: func(string) {
			inj.Stall(faultinject.TreeStream)
			streamed++
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if par.Counters != ref.Counters {
		t.Fatalf("stalled counters %+v, reference %+v", par.Counters, ref.Counters)
	}
	if streamed != ref.StandTrees {
		t.Fatalf("streamed %d trees, want %d", streamed, ref.StandTrees)
	}
	if inj.Fired(faultinject.TreeStream) == 0 {
		t.Fatal("stall never fired")
	}
}

// TestPanicDuringCancellation: panics racing a context cancel must not
// deadlock the pool or break counter conservation.
func TestPanicDuringCancellation(t *testing.T) {
	cons := hugeConstraints(t)
	inj := faultinject.New(3).Set(faultinject.TaskExec, faultinject.Rule{Every: 4})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	time.AfterFunc(100*time.Millisecond, cancel)
	par, err := Run(cons, Options{
		Threads:        6,
		Limits:         unlimited(),
		Ctx:            ctx,
		Fault:          inj,
		MaxTaskRetries: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if par.Stop != search.StopCancelled {
		t.Fatalf("stop %v, want cancelled", par.Stop)
	}
	sum := par.Prefix
	for _, c := range par.PerWorker {
		sum.Add(c)
	}
	if sum != par.Counters {
		t.Fatalf("conservation broken under cancel+panic: %+v != %+v", sum, par.Counters)
	}
}
