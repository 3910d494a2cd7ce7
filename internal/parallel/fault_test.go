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
	"gentrius/internal/tree"
)

// failedRun runs cons with inj on the serial host (threads 0: search.Run) or
// the pool, and returns the error of the run, which must have failed with a
// *search.PanicError and no result.
func failedRun(t *testing.T, cons []*tree.Tree, threads int, inj *faultinject.Injector) *search.PanicError {
	t.Helper()
	var result bool // the run returned a result
	var err error
	if threads == 0 {
		var res *search.Result
		res, err = search.Run(cons, search.Options{InitialTree: -1, Limits: unlimited(), Fault: inj})
		result = res != nil
	} else {
		var res *Result
		res, err = Run(cons, Options{Threads: threads, InitialTree: -1, Limits: unlimited(), Fault: inj})
		result = res != nil
	}
	var pe *search.PanicError
	if result || !errors.As(err, &pe) {
		t.Fatalf("T=%d: run returned a result: %v, error %v; want none and a *search.PanicError", threads, result, err)
	}
	if len(pe.Stack) == 0 || !strings.Contains(string(pe.Stack), "goroutine") {
		t.Fatalf("T=%d: stack missing: %q", threads, pe.Stack)
	}
	return pe
}

// TestTaskPanicFailsRunAtEveryWidth: a panic at the start of a task — the
// taskexec site, fired by the search.Worker that both hosts tick — fails the
// run the first time, on the serial host and on the pool at one, four and
// eight threads alike: no result, the one error type, the injected value
// and the stack of the Begin it came from. Nothing retries the task, so the
// site fires once.
func TestTaskPanicFailsRunAtEveryWidth(t *testing.T) {
	rng := rand.New(rand.NewSource(8080))
	for scen := 0; scen < 6; scen++ {
		cons := randomScenario(rng, 11+rng.Intn(4), 2+rng.Intn(2), 4, 0.5)
		for _, threads := range []int{0, 1, 4, 8} {
			inj := faultinject.New(42).Set(faultinject.TaskExec, faultinject.Rule{Every: 1})
			pe := failedRun(t, cons, threads, inj)
			if want := (faultinject.Panic{Site: faultinject.TaskExec, N: 1}); pe.Value != want {
				t.Fatalf("scen %d T=%d: panic value %v, want %v", scen, threads, pe.Value, want)
			}
			if !strings.Contains(string(pe.Stack), "search.(*Worker).Begin") {
				t.Fatalf("scen %d T=%d: the stack is not Begin's:\n%s", scen, threads, pe.Stack)
			}
			if fired := inj.Fired(faultinject.TaskExec); fired != 1 {
				t.Fatalf("scen %d T=%d: the site fired %d times, want 1", scen, threads, fired)
			}
		}
	}
}

// TestMidEnginePanicFailsRun: a panic at the Nth engine step — past counter
// flushes, handed-on trees and submitted sub-tasks — fails the run with the
// same error at one thread as at four: the Nth step is the Nth wherever it
// runs, and the value says which.
func TestMidEnginePanicFailsRun(t *testing.T) {
	rng := rand.New(rand.NewSource(8484))
	cons := randomScenario(rng, 12, 2, 4, 0.5)
	ref, err := search.Run(cons, search.Options{InitialTree: -1, Limits: unlimited()})
	if err != nil {
		t.Fatal(err)
	}
	const nth = 60
	if ref.Work.Units < 4*nth {
		t.Fatalf("stand too small: %d units", ref.Work.Units)
	}
	for _, threads := range []int{0, 1, 4} {
		inj := faultinject.New(9).Set(faultinject.EngineStep, faultinject.Rule{Nth: []int64{nth}})
		pe := failedRun(t, cons, threads, inj)
		if want := (faultinject.Panic{Site: faultinject.EngineStep, N: nth}); pe.Value != want {
			t.Fatalf("T=%d: panic value %v, want %v", threads, pe.Value, want)
		}
		if !strings.Contains(string(pe.Stack), "search.(*Worker).Tick") {
			t.Fatalf("T=%d: the stack is not Tick's:\n%s", threads, pe.Stack)
		}
		if n := inj.Count(faultinject.EngineStep); threads <= 1 && n != nth {
			t.Fatalf("T=%d: %d engine steps after the panic, want none", threads, n-nth)
		}
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
		Threads:     4,
		InitialTree: -1,
		Limits:      unlimited(),
		Fault:       faultinject.New(1).Set(faultinject.TaskExec, faultinject.Rule{Every: 1}),
		Obs:         &obs.Sink{Metrics: m},
	})
	var pe *search.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error %v, want *search.PanicError", err)
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

// TestPanicDuringCancellation: a panic racing a context cancel must not
// deadlock the pool. Whichever stop lands first, the run ends: failed, with
// no result, or cancelled, with counter conservation intact.
func TestPanicDuringCancellation(t *testing.T) {
	cons := hugeConstraints(t)
	failed, cancelled := 0, 0
	for _, delay := range []time.Duration{0, time.Millisecond, 5 * time.Millisecond} {
		for _, nth := range []int64{1, 500, 5000, 50000} {
			inj := faultinject.New(3).Set(faultinject.EngineStep, faultinject.Rule{Nth: []int64{nth}})
			ctx, cancel := context.WithCancel(context.Background())
			time.AfterFunc(delay, cancel)
			par, err := Run(cons, Options{Threads: 6, Limits: unlimited(), Ctx: ctx, Fault: inj})
			cancel()
			var pe *search.PanicError
			switch {
			case errors.As(err, &pe) && par == nil:
				failed++
			case err == nil && par.Stop == search.StopCancelled:
				cancelled++
				assertConservation(t, par)
			default:
				t.Fatalf("delay %v, step %d: run returned %+v, %v", delay, nth, par, err)
			}
		}
	}
	t.Logf("%d runs failed, %d were cancelled", failed, cancelled)
	if failed == 0 {
		t.Fatal("no panic landed")
	}
}
