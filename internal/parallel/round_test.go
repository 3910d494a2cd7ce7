package parallel

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"gentrius/internal/faultinject"
	"gentrius/internal/obs"
	"gentrius/internal/search"
	"gentrius/internal/tracereport"
)

// sameStand fails unless got is, as a multiset, the stand want.
func sameStand(t *testing.T, what string, got, want []string) {
	t.Helper()
	if !slices.Equal(sortedCopy(got), sortedCopy(want)) {
		t.Fatalf("%s: %d trees, want %d, or other trees", what, len(got), len(want))
	}
}

// TestRoundsAreResumes: a checkpoint round is a stop the pool resumes from.
// With two goroutines hammering the trigger and a 1 ms interval on top, the
// live run still yields the serial counters and stand; every checkpoint a
// round returned goes through the envelope codec and resumes at another
// width to the exact totals; and since every worker is idle at a cut, what
// the cut left to do was stolen afterwards: steals are the one counter that
// rounds move. The stand leaves in blocks, and no block spans a cut: the
// trees a checkpoint counts are the ones delivered before some block
// boundary, and those followed by what the resumed run delivers are the
// serial stand, every tree once. Every block is stalled in the sink (the
// treestream delay fault) and the workers publish, and so hand on a block,
// every 2^(n+2) trees: with the stand in dozens of blocks, the four the
// stream holds bound how far the workers run ahead of the sink, so they
// are blocked on it with work left for most of the run, and however late
// the control loop gets a processor, a round lands at every width.
func TestRoundsAreResumes(t *testing.T) {
	n := 6
	if raceEnabled {
		n = 5 // the race detector stretches the run, and with it the rounds to verify
	}
	cons := chainConstraints(n)
	ref, err := search.Run(cons, search.Options{InitialTree: -1, CollectTrees: true,
		Limits: search.Limits{MaxTrees: -1, MaxStates: -1, MaxTime: -1}})
	if err != nil {
		t.Fatal(err)
	}
	for _, threads := range []int{1, 3, 4} {
		stall, err := faultinject.Parse("treestream.every=1;treestream.delay=2ms")
		if err != nil {
			t.Fatal(err)
		}
		trig := search.NewCheckpointTrigger()
		var mu sync.Mutex
		var cps []*search.Checkpoint
		keep := func(cp *search.Checkpoint) {
			mu.Lock()
			cps = append(cps, cp)
			mu.Unlock()
		}
		var wg sync.WaitGroup
		for r := 0; r < 2; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 40; i++ {
					cp, err := trig.Request(context.Background())
					if err != nil {
						if !errors.Is(err, search.ErrRunEnded) {
							t.Error(err)
						}
						return
					}
					keep(cp)
				}
			}()
		}
		var delivered []string
		ends := map[int64]bool{0: true} // trees delivered at each block's end
		live, err := Run(cons, Options{
			Threads: threads, InitialTree: -1, Limits: unlimited(),
			Policy: search.Policy{TreeBatch: 1 << (n + 2)},
			OnTrees: func(block []byte, n int) {
				stall.Stall(faultinject.TreeStream)
				delivered = blockLines(t, delivered, block, n)
				ends[int64(len(delivered))] = true
			},
			Checkpoint: search.CheckpointPolicy{Trigger: trig, Interval: time.Millisecond, Sink: keep},
		})
		wg.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if live.Stop != search.StopExhausted || live.Counters != ref.Counters {
			t.Fatalf("T=%d: live run %v %+v, serial %+v", threads, live.Stop, live.Counters, ref.Counters)
		}
		assertConservation(t, live)
		sameStand(t, fmt.Sprintf("T=%d live", threads), delivered, ref.Trees)
		if len(cps) == 0 {
			t.Fatalf("T=%d: no round landed", threads)
		}
		rounds := int64(0)
		for i, cp := range cps {
			if len(cp.Frontier.Tasks) > 0 {
				rounds++
			}
			before := cp.Counters.StandTrees - live.Prefix.StandTrees
			if !ends[before] {
				t.Fatalf("T=%d: checkpoint %d of %d counts %d trees: a block spans the cut", threads, i, len(cps), before)
			}
			resT := threads%4 + 1
			res, err := Run(cons, Options{Threads: resT, Limits: unlimited(), CollectTrees: true,
				Checkpoint: search.CheckpointPolicy{Resume: roundTrip(t, cp)}})
			if err != nil {
				t.Fatalf("T=%d: resuming checkpoint %d of %d: %v", threads, i, len(cps), err)
			}
			if res.Counters != ref.Counters {
				t.Fatalf("T=%d: checkpoint %d of %d resumed at T=%d to %+v, want %+v",
					threads, i, len(cps), resT, res.Counters, ref.Counters)
			}
			sameStand(t, fmt.Sprintf("T=%d: checkpoint %d of %d and its resume at T=%d", threads, i, len(cps), resT),
				append(delivered[:before:before], res.Trees...), ref.Trees)
		}
		if live.TasksStolen < rounds {
			t.Fatalf("T=%d: %d rounds left work to do but only %d steals", threads, rounds, live.TasksStolen)
		}
		t.Logf("T=%d: %d blocks, %d checkpoints, %d with work left, %d steals", threads, len(ends), len(cps), rounds, live.TasksStolen)
	}
}

// TestCancelDuringRound: the context is cancelled while a round is waiting
// for workers that are blocked sending to a slow sink. The round gives up,
// what the workers handed in stays for the checkpoint-on-stop, and that
// checkpoint plus the trees streamed so far is the whole stand.
func TestCancelDuringRound(t *testing.T) {
	cons := chainConstraints(5)
	ref, err := Run(cons, Options{Threads: 4, InitialTree: -1, Limits: unlimited(), CollectTrees: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 5, 40, 300} {
		trig := search.NewCheckpointTrigger()
		ctx, cancel := context.WithCancel(context.Background())
		requested := make(chan error, 1)
		var pre []string
		res, err := Run(cons, Options{
			Threads: 3, InitialTree: -1, Limits: unlimited(), Ctx: ctx,
			// Blocks of at most four trees: while the sink blocks, the channel
			// and the workers hold under 50 of the stand's 1683 trees, so the
			// workers are blocked sending whatever k.
			Policy:     search.Policy{TreeBatch: 4},
			Checkpoint: search.CheckpointPolicy{Trigger: trig, OnStop: true},
			OnTree: func(nw string) {
				pre = append(pre, nw)
				switch len(pre) {
				case k:
					go func() {
						_, err := trig.Request(context.Background())
						requested <- err
					}()
				case k + 2:
					time.Sleep(2 * time.Millisecond) // let the round start waiting
					cancel()
				}
			},
		})
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		if err := <-requested; err != nil && !errors.Is(err, search.ErrRunEnded) {
			t.Fatalf("k=%d: the request returned %v", k, err)
		}
		if res.Stop != search.StopCancelled || res.Checkpoint == nil {
			t.Fatalf("k=%d: stop %v, checkpoint %v", k, res.Stop, res.Checkpoint != nil)
		}
		if int64(len(pre)) != res.StandTrees || res.Checkpoint.Counters != res.Counters {
			t.Fatalf("k=%d: %d trees streamed, counters %+v, checkpoint %+v",
				k, len(pre), res.Counters, res.Checkpoint.Counters)
		}
		assertConservation(t, res)
		rest, err := Run(cons, Options{Threads: 2, Limits: unlimited(), CollectTrees: true,
			Checkpoint: search.CheckpointPolicy{Resume: roundTrip(t, res.Checkpoint)}})
		if err != nil {
			t.Fatal(err)
		}
		if rest.Counters != ref.Counters {
			t.Fatalf("k=%d: resumed to %+v, want %+v", k, rest.Counters, ref.Counters)
		}
		sameStand(t, fmt.Sprintf("k=%d before+after", k), append(pre, rest.Trees...), ref.Trees)
	}
}

// TestGoroutineCensus: a run is its T workers plus the tree collector, and
// nothing else — cancellation, the trigger and the interval need no
// goroutine of their own. Counted from inside a Sink call, mid-run. A stand
// that ends before worker 0's first poll is worker 0 plus the collector,
// counted from inside the sink at every tree.
func TestGoroutineCensus(t *testing.T) {
	const threads = 4
	for i, cons := range smallStands() {
		before, most := settledGoroutines(), 0
		_, err := Run(cons, Options{Threads: threads, InitialTree: -1, Limits: unlimited(),
			OnTree: func(string) { most = max(most, runtime.NumGoroutine()-before) }})
		if err != nil {
			t.Fatal(err)
		}
		if most < 1 || most > 2 {
			t.Fatalf("small stand %d: the run added %d goroutines, want worker 0 and the collector", i, most)
		}
	}
	cons := chainConstraints(7)
	for _, tc := range []struct {
		onTree func(string)
		extra  int
	}{
		{func(string) {}, threads + 2},
		{nil, threads + 1},
	} {
		ctx, cancel := context.WithCancel(context.Background())
		before := settledGoroutines()
		seen := -1
		_, err := Run(cons, Options{
			Threads: threads, InitialTree: -1, Limits: unlimited(), Ctx: ctx, OnTree: tc.onTree,
			Checkpoint: search.CheckpointPolicy{
				Trigger:  search.NewCheckpointTrigger(),
				Interval: time.Millisecond,
				Sink: func(*search.Checkpoint) {
					if seen < 0 {
						seen = runtime.NumGoroutine() - before
					}
					cancel() // one observation is enough
				},
			},
		})
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		if seen < 0 {
			t.Logf("OnTree %v: the run finished before the first interval", tc.onTree != nil)
			continue
		}
		if seen > tc.extra {
			t.Fatalf("OnTree %v: the run added %d goroutines, want at most %d", tc.onTree != nil, seen, tc.extra)
		}
	}
}

// settledGoroutines counts the goroutines once the count has stopped
// falling, for up to a second: a run returns when its last worker and its
// collector have signalled their end, a moment before those goroutines exit.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		m := runtime.NumGoroutine()
		if m >= n {
			return m
		}
		n = m
	}
	return n
}

// TestOnTreePanicFailsRun: a panic in the caller's OnTree, or in its OnTrees,
// fails that run with a *search.PanicError, as a panic in a task does — from
// the pool's collector goroutine, and inline in the serial host's task
// (threads 0: search.Run, a block at every check), where an unrecovered panic
// would kill the process and every other run in it.
func TestOnTreePanicFailsRun(t *testing.T) {
	cons := chainConstraints(4)
	ref, err := Run(cons, Options{Threads: 2, InitialTree: -1, Limits: unlimited()})
	if err != nil {
		t.Fatal(err)
	}
	for _, threads := range []int{0, 1, 3} {
		other := make(chan *Result, 1)
		go func() {
			res, err := Run(cons, Options{Threads: 2, InitialTree: -1, Limits: unlimited(), OnTree: func(string) {}})
			if err != nil {
				t.Error(err)
			}
			other <- res
		}()
		for _, blocks := range []bool{false, true} {
			n := 0
			boom := func() {
				if n++; n == 7 {
					panic("sink boom")
				}
			}
			opt := Options{
				Threads: threads, InitialTree: -1, Limits: unlimited(),
				// Blocks of one tree: the channel is full when the sink panics.
				Policy:     search.Policy{TreeBatch: 1},
				Checkpoint: search.CheckpointPolicy{OnStop: true},
			}
			if blocks {
				opt.OnTrees = func([]byte, int) { boom() }
			} else {
				opt.OnTree = func(string) { boom() }
			}
			var result bool
			var err error
			if threads == 0 {
				var res *search.Result
				res, err = search.Run(cons, search.Options{InitialTree: -1, Limits: unlimited(), CheckEvery: 1,
					OnTree: opt.OnTree, OnTrees: opt.OnTrees, Checkpoint: opt.Checkpoint})
				result = res != nil
			} else {
				var res *Result
				res, err = Run(cons, opt)
				result = res != nil
			}
			var spe *search.PanicError
			if result || !errors.As(err, &spe) {
				t.Fatalf("T=%d: the run returned a result (%v) and %v", threads, result, err)
			}
			if spe.Value != "sink boom" || !bytes.Contains(spe.Stack, []byte("TestOnTreePanicFailsRun")) {
				t.Fatalf("T=%d: panic value %v, stack:\n%s", threads, spe.Value, spe.Stack)
			}
			if n != 7 {
				t.Fatalf("T=%d: the sink was called %d times, the 7th panicked", threads, n)
			}
		}
		if o := <-other; o == nil || o.Counters != ref.Counters {
			t.Fatalf("T=%d: the concurrent run did not survive: %+v", threads, o)
		}
	}
}

// TestRoundTraceAudit: every task a round queues again is submitted in the
// trace under its new id, so the analyzer's steal/submit pairing stays
// clean: no finding at all.
func TestRoundTraceAudit(t *testing.T) {
	cons := chainConstraints(7)
	var buf bytes.Buffer
	rec := obs.NewRecorder(&buf, obs.WallClock(time.Now()))
	rounds := 0
	res, err := Run(cons, Options{
		Threads: 3, InitialTree: -1, Limits: unlimited(),
		Obs: &obs.Sink{Trace: rec},
		Checkpoint: search.CheckpointPolicy{
			Interval: time.Millisecond,
			Sink:     func(*search.Checkpoint) { rounds++ },
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	if rounds == 0 {
		t.Skip("run finished before the first interval")
	}
	events, err := tracereport.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rep := tracereport.Analyze(events, "ns")
	if rep.Steals != res.TasksStolen {
		t.Fatalf("%d steals traced, %d stolen", rep.Steals, res.TasksStolen)
	}
	for _, a := range rep.Audit {
		t.Errorf("audit: %s", a)
	}
}
