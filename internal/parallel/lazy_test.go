package parallel

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"gentrius/internal/faultinject"
	"gentrius/internal/gen"
	"gentrius/internal/obs"
	"gentrius/internal/search"
	"gentrius/internal/tracereport"
	"gentrius/internal/tree"
)

// smallStands are the stands of the benchmark's count-many corpus that have
// tasks to run and end before worker 0's first poll (65 to 255 transitions of
// the paper's machine); spawningStand is one that outlives it by little (2 027
// transitions, 819 trees): a stop or a round lands on either side of the spawn
// within a few hundred trees.
func smallStands() [][]*tree.Tree {
	var out [][]*tree.Tree
	for _, idx := range []int{2, 3, 4, 10, 14, 16} {
		out = append(out, gen.Generate(gen.Default(gen.RegimeSimulated), idx).Constraints)
	}
	return out
}

func spawningStand() []*tree.Tree {
	return gen.Generate(gen.Default(gen.RegimeSimulated), 7).Constraints
}

// tracedRun is Run with an event trace, parsed.
func tracedRun(t *testing.T, cons []*tree.Tree, opt Options) (*Result, []tracereport.TraceEvent) {
	t.Helper()
	var buf bytes.Buffer
	rec := obs.NewRecorder(&buf, obs.WallClock(time.Now()))
	opt.Obs = &obs.Sink{Trace: rec}
	res, err := Run(cons, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := tracereport.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return res, events
}

// resumesToSerial fails unless cp, through the envelope codec, resumes at one
// thread and at eight to the serial counters want.
func resumesToSerial(t *testing.T, what string, cons []*tree.Tree, cp *search.Checkpoint, want search.Counters) {
	t.Helper()
	for _, threads := range []int{1, 8} {
		back, err := Run(cons, Options{Threads: threads, Limits: unlimited(),
			Checkpoint: search.CheckpointPolicy{Resume: roundTrip(t, cp)}})
		if err != nil {
			t.Fatal(err)
		}
		if back.Counters != want {
			t.Fatalf("%s, resumed at %d threads: %+v, serial %+v", what, threads, back.Counters, want)
		}
	}
}

// spawnedAt returns the index of the first event of a worker other than 0 (its
// worker-start), or -1 when worker 0 never started another.
func spawnedAt(events []tracereport.TraceEvent) int {
	for i, e := range events {
		if e.Worker > 0 {
			return i
		}
	}
	return -1
}

// TestLazyStandNeverSpawns: a stand that ends before worker 0's first poll is
// run by worker 0 alone, whatever Threads says — it steals every share
// itself, the others publish nothing and leave no event — and to the serial
// counters. PerWorker keeps its configured length.
func TestLazyStandNeverSpawns(t *testing.T) {
	for i, cons := range smallStands() {
		ref, err := search.Run(cons, search.Options{InitialTree: -1, Limits: unlimited()})
		if err != nil {
			t.Fatal(err)
		}
		if ref.Steps >= 1024 {
			t.Fatalf("stand %d takes %d transitions: not a small one", i, ref.Steps)
		}
		for _, threads := range []int{2, 4, 8} {
			res, events := tracedRun(t, cons, Options{Threads: threads, InitialTree: -1, Limits: unlimited()})
			if res.Counters != ref.Counters || res.Stop != search.StopExhausted {
				t.Fatalf("stand %d at %d threads: %+v (%v), serial %+v", i, threads, res.Counters, res.Stop, ref.Counters)
			}
			assertConservation(t, res)
			if len(res.PerWorker) != threads {
				t.Fatalf("stand %d at %d threads: %d per-worker entries", i, threads, len(res.PerWorker))
			}
			for w, c := range res.PerWorker[1:] {
				if c != (search.Counters{}) {
					t.Fatalf("stand %d at %d threads: worker %d published %+v", i, threads, w+1, c)
				}
			}
			if at := spawnedAt(events); at >= 0 {
				t.Fatalf("stand %d at %d threads: worker %d was started (%s)", i, threads, events[at].Worker, events[at].Ev)
			}
			if res.TasksStolen == 0 {
				t.Fatalf("stand %d at %d threads: no share was stolen", i, threads)
			}
		}
	}
}

// TestSpawnAtFirstPoll: a stand that outlives the first poll gets all its
// other workers, and not before worker 0 is inside a task.
func TestSpawnAtFirstPoll(t *testing.T) {
	cons := spawningStand()
	ref, err := search.Run(cons, search.Options{InitialTree: -1, Limits: unlimited()})
	if err != nil {
		t.Fatal(err)
	}
	res, events := tracedRun(t, cons, Options{Threads: 4, InitialTree: -1, Limits: unlimited()})
	if res.Counters != ref.Counters {
		t.Fatalf("%+v, serial %+v", res.Counters, ref.Counters)
	}
	at := spawnedAt(events)
	if at < 0 {
		t.Fatalf("a stand of %d transitions never got a second worker", ref.Steps)
	}
	started := map[int]bool{}
	for _, e := range events {
		if e.Ev == obs.EvWorkerStart {
			started[e.Worker] = true
		}
	}
	if len(started) != 4 {
		t.Fatalf("workers started: %v", started)
	}
	begun := false
	for _, e := range events[:at] {
		begun = begun || e.Ev == obs.EvTaskStart
	}
	if !begun {
		t.Fatal("worker 1 started before worker 0 had begun a task")
	}
}

// TestLazyCutRecordsConfiguredWidth: a round taken on a run that never
// spawns — every worker the queue knows of is worker 0 — still stamps the cut
// with the configured width, and the cut resumes at any other to the serial
// counters.
func TestLazyCutRecordsConfiguredWidth(t *testing.T) {
	cons := smallStands()[5]
	ref, err := search.Run(cons, search.Options{InitialTree: -1, Limits: unlimited()})
	if err != nil {
		t.Fatal(err)
	}
	// The stand is over in microseconds. A sink that dawdles over the first tree
	// holds worker 0, a few blocks on, at the free list: long enough, nearly
	// always, for the request to find the run still going.
	trig := search.NewCheckpointTrigger()
	var (
		once   sync.Once
		cp     *search.Checkpoint
		reqErr error
		wg     sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		cp, reqErr = trig.Request(ctx)
	}()
	res, err := Run(cons, Options{Threads: 4, InitialTree: -1, Limits: unlimited(),
		Policy:     search.Policy{TreeBatch: 1, StateBatch: 1, DeadEndBatch: 1},
		OnTree:     func(string) { once.Do(func() { time.Sleep(10 * time.Millisecond) }) },
		Checkpoint: search.CheckpointPolicy{Trigger: trig}})
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters != ref.Counters {
		t.Fatalf("%+v, serial %+v", res.Counters, ref.Counters)
	}
	if reqErr != nil {
		if reqErr != search.ErrRunEnded {
			t.Fatal(reqErr)
		}
		t.Skip("run finished before the trigger was serviced")
	}
	if cp.Frontier.Threads != 4 {
		t.Fatalf("cut of a 4-thread run records width %d", cp.Frontier.Threads)
	}
	resumesToSerial(t, "the cut", cons, cp, ref.Counters)
}

// TestSpawnAgainstStopsAndRounds: a tree limit, a cancellation and a trigger
// request, each aimed at every fiftieth tree of a stand that spawns about
// half-way through, land before the spawn, after it and — over the repeats CI
// makes under the race detector — on it. Wherever they land, what the run
// counted and the checkpoint it left (the round's, or the stop's) resume at
// one thread and at eight to the serial counters; a stop that came first
// leaves the other workers unstarted, and both sides of the spawn are seen.
func TestSpawnAgainstStopsAndRounds(t *testing.T) {
	cons := spawningStand()
	ref, err := search.Run(cons, search.Options{InitialTree: -1, Limits: unlimited()})
	if err != nil {
		t.Fatal(err)
	}
	every := search.Policy{TreeBatch: 1, StateBatch: 1, DeadEndBatch: 1}
	for _, kind := range []string{"tree limit", "cancel", "trigger"} {
		before, after := 0, 0
		for at := int64(1); at < ref.StandTrees; at += 50 {
			what := fmt.Sprintf("%s at tree %d", kind, at)
			ctx, cancel := context.WithCancel(context.Background())
			opt := Options{Threads: 4, InitialTree: -1, Limits: unlimited(), Policy: every, Ctx: ctx,
				Checkpoint: search.CheckpointPolicy{OnStop: true}}
			var (
				seen   int64 // trees delivered, on the collector's goroutine
				wg     sync.WaitGroup
				cut    *search.Checkpoint
				reqErr error
			)
			switch kind {
			case "tree limit":
				opt.Limits.MaxTrees = at
			case "cancel":
				opt.OnTree = func(string) {
					if seen++; seen == at {
						cancel()
					}
				}
			case "trigger":
				trig := search.NewCheckpointTrigger()
				opt.Checkpoint.Trigger = trig
				opt.OnTree = func(string) {
					if seen++; seen == at {
						wg.Add(1)
						go func() {
							defer wg.Done()
							cut, reqErr = trig.Request(ctx)
						}()
					}
				}
			}
			res, events := tracedRun(t, cons, opt)
			wg.Wait()
			cancel()
			assertConservation(t, res)
			spawn := spawnedAt(events)
			if kind == "trigger" {
				if res.Counters != ref.Counters {
					t.Fatalf("%s: %+v, serial %+v", what, res.Counters, ref.Counters)
				}
				if reqErr != nil {
					if reqErr != search.ErrRunEnded {
						t.Fatalf("%s: %v", what, reqErr)
					}
					continue // the run ended first
				}
				if cut.Frontier.Threads != 4 {
					t.Fatalf("%s: the cut records width %d", what, cut.Frontier.Threads)
				}
				resumesToSerial(t, what, cons, cut, ref.Counters)
				// What a round hands back in is submitted again by the pool itself,
				// after the first steal; the initial shares before it.
				stolen := false
				for i, e := range events {
					stolen = stolen || e.Ev == obs.EvSteal
					if stolen && e.Ev == obs.EvTaskSubmit && e.Worker < 0 {
						if spawn < 0 || i < spawn {
							before++
						} else {
							after++
						}
						break
					}
				}
				continue
			}
			if res.Stop == search.StopExhausted {
				if res.Counters != ref.Counters {
					t.Fatalf("%s: ran to the end with %+v, serial %+v", what, res.Counters, ref.Counters)
				}
				continue
			}
			if res.Checkpoint == nil || res.Checkpoint.Frontier.Threads != 4 {
				t.Fatalf("%s: stopped (%v) with checkpoint %+v", what, res.Stop, res.Checkpoint)
			}
			resumesToSerial(t, what, cons, res.Checkpoint, ref.Counters)
			if spawn < 0 {
				before++
				for w, c := range res.PerWorker[1:] {
					if c != (search.Counters{}) {
						t.Fatalf("%s: unstarted worker %d published %+v", what, w+1, c)
					}
				}
			} else {
				after++
			}
		}
		if before == 0 || after == 0 {
			t.Errorf("%s: %d landed before the spawn, %d after: the sweep misses a side", kind, before, after)
		}
	}
}

// TestLazyPanicBeforeSpawnFailsRun: a panic at the start of the run's first
// task execution, or at its first engine step — worker 0's, nobody else
// started — fails the run: no result, the injected value, one panic traced,
// and still no second worker.
func TestLazyPanicBeforeSpawnFailsRun(t *testing.T) {
	for i, cons := range smallStands() {
		for _, site := range []faultinject.Site{faultinject.TaskExec, faultinject.EngineStep} {
			var buf bytes.Buffer
			rec := obs.NewRecorder(&buf, obs.WallClock(time.Now()))
			inj := faultinject.New(5).Set(site, faultinject.Rule{Nth: []int64{1}})
			res, err := Run(cons, Options{Threads: 4, InitialTree: -1, Limits: unlimited(), Fault: inj,
				Obs: &obs.Sink{Trace: rec}})
			var pe *search.PanicError
			if res != nil || !errors.As(err, &pe) || pe.Value != (faultinject.Panic{Site: site, N: 1}) {
				t.Fatalf("stand %d, %v: Run returned %+v, %v", i, site, res, err)
			}
			if err := rec.Close(); err != nil {
				t.Fatal(err)
			}
			events, err := tracereport.ReadTrace(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if rep := tracereport.Analyze(events, "ns"); inj.Fired(site) != 1 || rep.Panics != 1 {
				t.Fatalf("stand %d, %v: %d fired, %d panics traced", i, site, inj.Fired(site), rep.Panics)
			}
			if at := spawnedAt(events); at >= 0 {
				t.Fatalf("stand %d, %v: worker %d was started", i, site, events[at].Worker)
			}
		}
	}
}
