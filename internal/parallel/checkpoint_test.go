package parallel

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"gentrius/internal/faultinject"
	"gentrius/internal/obs"
	"gentrius/internal/search"
	"gentrius/internal/tree"
)

// chainConstraints builds two caterpillar constraint trees with n private
// taxa each: a finite but combinatorially rich stand, big enough that a
// state limit reliably interrupts it mid-enumeration.
func chainConstraints(n int) []*tree.Tree {
	all := []string{"A", "B", "C", "D"}
	for i := 0; i < n; i++ {
		all = append(all, fmt.Sprintf("x%d", i), fmt.Sprintf("y%d", i))
	}
	taxa := tree.MustTaxa(all)
	cat := func(leaves []string) string {
		s := "(" + leaves[0] + "," + leaves[1] + ")"
		for _, nm := range leaves[2:] {
			s = "(" + s + "," + nm + ")"
		}
		return s + ";"
	}
	c1, c2 := []string{"A", "B"}, []string{"A", "B"}
	for i := 0; i < n; i++ {
		c1 = append(c1, fmt.Sprintf("x%d", i))
		c2 = append(c2, fmt.Sprintf("y%d", i))
	}
	c1 = append(c1, "C", "D")
	c2 = append(c2, "C", "D")
	return []*tree.Tree{tree.MustParse(cat(c1), taxa), tree.MustParse(cat(c2), taxa)}
}

// roundTrip serializes a checkpoint through the envelope codec, so every
// resume in these tests exercises the CRC/JSON path too.
func roundTrip(t *testing.T, cp *search.Checkpoint) *search.Checkpoint {
	t.Helper()
	var buf bytes.Buffer
	if err := cp.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := search.ReadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return back
}

func assertConservation(t *testing.T, res *Result) {
	t.Helper()
	sum := res.Prefix
	for _, c := range res.PerWorker {
		sum.Add(c)
	}
	if sum != res.Counters {
		t.Fatalf("counter conservation violated: prefix+workers %+v != %+v", sum, res.Counters)
	}
}

// TestCheckpointStopResumeMatrix is the tentpole acceptance criterion: a
// parallel run snapshotted mid-enumeration at any thread count resumes at
// any other thread count with final counters exactly equal to an
// uninterrupted run's, and the trees streamed before the stop plus the
// trees found after the resume partition the stand (no gaps, no dups).
func TestCheckpointStopResumeMatrix(t *testing.T) {
	cons := chainConstraints(5)
	ref, err := Run(cons, Options{Threads: 4, InitialTree: -1, Limits: unlimited(), CollectTrees: true})
	if err != nil {
		t.Fatal(err)
	}
	if ref.Stop != search.StopExhausted {
		t.Fatalf("reference run stopped early: %v", ref.Stop)
	}
	stopAt := ref.IntermediateStates / 3
	if stopAt < 1 {
		t.Fatalf("scenario too small: %d states", ref.IntermediateStates)
	}
	for _, snapT := range []int{1, 4, 8} {
		for _, resT := range []int{1, 4, 8} {
			t.Run(fmt.Sprintf("snap=%d/resume=%d", snapT, resT), func(t *testing.T) {
				var pre []string // OnTree calls are serialized by the collector
				res1, err := Run(cons, Options{
					Threads:     snapT,
					InitialTree: -1,
					Limits:      search.Limits{MaxStates: stopAt, MaxTrees: -1, MaxTime: -1},
					// Small flush batches so the state limit is noticed well
					// before the stand is exhausted.
					Policy:     search.Policy{TreeBatch: 16, StateBatch: 64, DeadEndBatch: 16},
					Checkpoint: search.CheckpointPolicy{OnStop: true},
					OnTree:     func(nw string) { pre = append(pre, nw) },
				})
				if err != nil {
					t.Fatal(err)
				}
				if res1.Stop != search.StopStateLimit {
					t.Fatalf("stop = %v, want state-limit", res1.Stop)
				}
				if res1.Checkpoint == nil {
					t.Fatal("no checkpoint captured on stop")
				}
				if res1.Checkpoint.Counters != res1.Counters {
					t.Fatalf("checkpoint counters %+v != run counters %+v",
						res1.Checkpoint.Counters, res1.Counters)
				}
				if int64(len(pre)) != res1.StandTrees {
					t.Fatalf("streamed %d trees before the stop, counters say %d",
						len(pre), res1.StandTrees)
				}
				assertConservation(t, res1)

				cp := roundTrip(t, res1.Checkpoint)
				res2, err := Run(cons, Options{
					Threads:      resT,
					Limits:       unlimited(),
					Checkpoint:   search.CheckpointPolicy{Resume: cp},
					CollectTrees: true,
				})
				if err != nil {
					t.Fatal(err)
				}
				if res2.Stop != search.StopExhausted {
					t.Fatalf("resumed run stopped early: %v", res2.Stop)
				}
				if res2.Counters != ref.Counters {
					t.Fatalf("resumed totals %+v != uninterrupted %+v", res2.Counters, ref.Counters)
				}
				assertConservation(t, res2)

				combined := append(append([]string(nil), pre...), res2.Trees...)
				cs, rs := sortedCopy(combined), sortedCopy(ref.Trees)
				if len(cs) != len(rs) {
					t.Fatalf("pre+post = %d+%d trees, reference %d",
						len(pre), len(res2.Trees), len(rs))
				}
				for i := range cs {
					if cs[i] != rs[i] {
						t.Fatalf("stand differs from reference at %d", i)
					}
				}
			})
		}
	}
}

// TestCheckpointCancelResume covers the other stop path: a cancelled run
// with CheckpointOnStop resumes to exact totals. The 20th tree the sink takes
// cancels the run, and the sink then holds the stream for 50 ms: the workers
// publish, and hand on a block, at every tree, so the four blocks the stream
// holds stop them a few trees on, with the stand far from over, until the
// goroutine context.AfterFunc starts has raised the stop. (Without the hold,
// a busy host could run the stand out before that goroutine got a
// processor.)
func TestCheckpointCancelResume(t *testing.T) {
	cons := chainConstraints(4)
	ref, err := Run(cons, Options{Threads: 4, InitialTree: -1, Limits: unlimited()})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	n := 0
	res1, err := Run(cons, Options{
		Threads: 4, InitialTree: -1, Limits: unlimited(), Ctx: ctx,
		Policy:     search.Policy{TreeBatch: 1},
		Checkpoint: search.CheckpointPolicy{OnStop: true},
		OnTree: func(string) {
			if n++; n == 20 {
				cancel()
				time.Sleep(50 * time.Millisecond)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res1.Stop != search.StopCancelled || res1.Checkpoint == nil {
		t.Fatalf("stop = %v, checkpoint = %v", res1.Stop, res1.Checkpoint != nil)
	}
	res2, err := Run(cons, Options{Threads: 2, Limits: unlimited(), Checkpoint: search.CheckpointPolicy{Resume: roundTrip(t, res1.Checkpoint)}})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Counters != ref.Counters {
		t.Fatalf("resumed totals %+v != uninterrupted %+v", res2.Counters, ref.Counters)
	}
}

// TestCheckpointSerialResumesParallel: a serial run's snapshot is a frontier
// like the pool's, consumed by the parallel engine at any thread count.
func TestCheckpointSerialResumesParallel(t *testing.T) {
	cons := chainConstraints(3)
	ref, err := search.Run(cons, search.Options{InitialTree: -1, CollectTrees: true})
	if err != nil {
		t.Fatal(err)
	}
	var pre []string
	res1, err := search.Run(cons, search.Options{
		InitialTree: -1,
		Limits:      search.Limits{MaxStates: ref.IntermediateStates / 2, MaxTrees: -1, MaxTime: -1},
		CheckEvery:  64,
		Checkpoint:  search.CheckpointPolicy{OnStop: true},
		OnTree:      func(nw string) { pre = append(pre, nw) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if res1.Checkpoint == nil {
		t.Fatal("serial run produced no checkpoint")
	}
	cp := roundTrip(t, res1.Checkpoint)
	if cp.Version != 2 || cp.Frontier == nil || cp.Frontier.Threads != 1 {
		t.Fatalf("expected a one-thread frontier checkpoint, got v%d", cp.Version)
	}
	for _, threads := range []int{1, 4} {
		res2, err := Run(cons, Options{Threads: threads, Limits: unlimited(), Checkpoint: search.CheckpointPolicy{Resume: cp}, CollectTrees: true})
		if err != nil {
			t.Fatalf("threads %d: %v", threads, err)
		}
		if res2.Counters != ref.Counters {
			t.Fatalf("threads %d: resumed totals %+v != serial %+v", threads, res2.Counters, ref.Counters)
		}
		combined := append(append([]string(nil), pre...), res2.Trees...)
		cs, rs := sortedCopy(combined), sortedCopy(ref.Trees)
		if len(cs) != len(rs) {
			t.Fatalf("threads %d: %d trees, want %d", threads, len(cs), len(rs))
		}
		for i := range cs {
			if cs[i] != rs[i] {
				t.Fatalf("threads %d: stand differs at %d", threads, i)
			}
		}
	}
}

// TestCheckpointPeriodicQuiesce: periodic snapshots stop the pool and resume
// it in place without disturbing the live run (it still finishes with exact
// totals), and each captured snapshot is itself a valid resume point. The
// stand is large enough (tens of thousands of trees) that the run outlasts
// several intervals; a smaller one finishes inside the first.
func TestCheckpointPeriodicQuiesce(t *testing.T) {
	cons := chainConstraints(7)
	ref, err := Run(cons, Options{Threads: 4, InitialTree: -1, Limits: unlimited()})
	if err != nil {
		t.Fatal(err)
	}
	var cps []*search.Checkpoint // Sink runs on one goroutine
	live, err := Run(cons, Options{
		Threads: 4, InitialTree: -1, Limits: unlimited(),
		Checkpoint: search.CheckpointPolicy{
			Interval: time.Millisecond,
			Sink:     func(cp *search.Checkpoint) { cps = append(cps, cp) },
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if live.Stop != search.StopExhausted || live.Counters != ref.Counters {
		t.Fatalf("live run disturbed by the rounds: %v %+v (ref %+v)",
			live.Stop, live.Counters, ref.Counters)
	}
	if len(cps) == 0 {
		t.Skip("run finished before the first checkpoint interval")
	}
	// Resume from the first and the last snapshot: both must complete the
	// enumeration to the exact reference totals.
	for _, cp := range []*search.Checkpoint{cps[0], cps[len(cps)-1]} {
		res, err := Run(cons, Options{Threads: 2, Limits: unlimited(), Checkpoint: search.CheckpointPolicy{Resume: roundTrip(t, cp)}})
		if err != nil {
			t.Fatal(err)
		}
		if res.Counters != ref.Counters {
			t.Fatalf("resume from periodic snapshot: totals %+v != %+v", res.Counters, ref.Counters)
		}
	}
}

// TestCheckpointTriggerMidRun: an on-demand trigger request takes a round of
// the pool, returns a consistent snapshot and lets the run continue unharmed.
func TestCheckpointTriggerMidRun(t *testing.T) {
	cons := chainConstraints(5)
	ref, err := Run(cons, Options{Threads: 4, InitialTree: -1, Limits: unlimited()})
	if err != nil {
		t.Fatal(err)
	}
	trig := search.NewCheckpointTrigger()
	type outcome struct {
		res *Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := Run(cons, Options{Threads: 4, InitialTree: -1, Limits: unlimited(), Checkpoint: search.CheckpointPolicy{Trigger: trig}})
		done <- outcome{res, err}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cp, reqErr := trig.Request(ctx)
	out := <-done
	if out.err != nil {
		t.Fatal(out.err)
	}
	if out.res.Counters != ref.Counters {
		t.Fatalf("triggered run totals %+v != %+v", out.res.Counters, ref.Counters)
	}
	if reqErr != nil {
		// The run can finish before the request is serviced; that must
		// surface as ErrRunEnded, not a hang or a torn snapshot.
		if reqErr != search.ErrRunEnded {
			t.Fatalf("unexpected trigger error: %v", reqErr)
		}
		t.Skip("run finished before the trigger was serviced")
	}
	if cp.Counters.IntermediateStates > ref.IntermediateStates {
		t.Fatalf("snapshot counters overshoot the whole run: %+v", cp.Counters)
	}
	res2, err := Run(cons, Options{Threads: 8, Limits: unlimited(), Checkpoint: search.CheckpointPolicy{Resume: roundTrip(t, cp)}})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Counters != ref.Counters {
		t.Fatalf("resume from triggered snapshot: totals %+v != %+v", res2.Counters, ref.Counters)
	}
}

// TestOnlyRetryIsAResume: a run whose task panics fails, and the snapshots
// it took before are how it goes on. Periodic snapshots go to a Sink — at
// every stopping-rule check on the serial host, every millisecond on the pool
// at four threads — until an engine-step panic late in the run fails it with
// a *search.PanicError and no result; the last snapshot, resumed with no
// fault, ends with the uninterrupted run's counters. Late is nine tenths of
// the engine steps an uninterrupted run on the same host takes: a host's
// budget decides how many branches one step takes, so the serial run and
// the pool step differently. The stand is one the pool takes tens of
// milliseconds over, so that snapshots fall before the panic on a loaded host.
func TestOnlyRetryIsAResume(t *testing.T) {
	cons := chainConstraints(8)
	var ref *search.Result
	for _, threads := range []int{1, 4} {
		count := faultinject.New(1).Set(faultinject.EngineStep, faultinject.Rule{Nth: []int64{-1}})
		var err error
		if threads == 1 {
			ref, err = search.Run(cons, search.Options{InitialTree: -1, Limits: unlimited(), Fault: count})
		} else {
			_, err = Run(cons, Options{Threads: threads, InitialTree: -1, Limits: unlimited(), Fault: count})
		}
		if err != nil {
			t.Fatal(err)
		}
		nth := count.Count(faultinject.EngineStep) * 9 / 10
		var last *search.Checkpoint
		snaps := 0
		ck := search.CheckpointPolicy{Interval: time.Millisecond, Sink: func(cp *search.Checkpoint) {
			last = cp
			snaps++
		}}
		inj := faultinject.New(2).Set(faultinject.EngineStep, faultinject.Rule{Nth: []int64{nth}})
		var failed bool
		if threads == 1 {
			ck.Interval = time.Nanosecond
			res, err := search.Run(cons, search.Options{InitialTree: -1, Limits: unlimited(), Checkpoint: ck, Fault: inj})
			var pe *search.PanicError
			failed = res == nil && errors.As(err, &pe)
		} else {
			res, err := Run(cons, Options{Threads: threads, InitialTree: -1, Limits: unlimited(), Checkpoint: ck, Fault: inj})
			var pe *search.PanicError
			failed = res == nil && errors.As(err, &pe)
		}
		if !failed || inj.Fired(faultinject.EngineStep) != 1 {
			t.Fatalf("T=%d: the run with a panic at step %d did not fail with a *search.PanicError and no result", threads, nth)
		}
		if last == nil || last.Counters.StandTrees >= ref.StandTrees {
			t.Fatalf("T=%d: %d snapshots before the panic at step %d, the last %+v", threads, snaps, nth, last)
		}
		cp := roundTrip(t, last)
		var got search.Counters
		if threads == 1 {
			res, err := search.Run(cons, search.Options{Limits: unlimited(), Checkpoint: search.CheckpointPolicy{Resume: cp}})
			if err != nil {
				t.Fatal(err)
			}
			got = res.Counters
		} else {
			res, err := Run(cons, Options{Threads: threads, Limits: unlimited(), Checkpoint: search.CheckpointPolicy{Resume: cp}})
			if err != nil {
				t.Fatal(err)
			}
			got = res.Counters
		}
		if got != ref.Counters {
			t.Fatalf("T=%d: resumed from snapshot %d of %d: %+v, uninterrupted %+v", threads, snaps, snaps, got, ref.Counters)
		}
		t.Logf("T=%d: %d snapshots before the panic, the last at %d of %d trees", threads, snaps,
			last.Counters.StandTrees, ref.StandTrees)
	}
}

// TestCheckpointEstimatorSeeding: a resumed run's estimator is seeded with
// the consumed mass (1 − frontier RemainingMass), so at exhaustion its
// fraction-complete converges to 1 and its counters match the run's.
func TestCheckpointEstimatorSeeding(t *testing.T) {
	cons := chainConstraints(4)
	ref, err := Run(cons, Options{Threads: 4, InitialTree: -1, Limits: unlimited()})
	if err != nil {
		t.Fatal(err)
	}
	res1, err := Run(cons, Options{
		Threads: 4, InitialTree: -1,
		Limits:     search.Limits{MaxStates: ref.IntermediateStates / 2, MaxTrees: -1, MaxTime: -1},
		Policy:     search.Policy{TreeBatch: 16, StateBatch: 64, DeadEndBatch: 16},
		Checkpoint: search.CheckpointPolicy{OnStop: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res1.Checkpoint == nil {
		t.Fatalf("no checkpoint (stop %v)", res1.Stop)
	}
	cp := roundTrip(t, res1.Checkpoint)
	if err := cp.Validate(cons); err != nil {
		t.Fatal(err)
	}
	rem := cp.Frontier.RemainingMass()
	if rem <= 0 || rem >= 1+1e-9 {
		t.Fatalf("remaining mass %v out of (0,1]", rem)
	}
	est := &obs.Estimator{}
	res2, err := Run(cons, Options{
		Threads: 2, Limits: unlimited(), Checkpoint: search.CheckpointPolicy{Resume: cp},
		Obs: &obs.Sink{Estimate: est},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Counters != ref.Counters {
		t.Fatalf("resumed totals %+v != %+v", res2.Counters, ref.Counters)
	}
	if f := est.Fraction(); math.Abs(f-1) > 1e-9 {
		t.Fatalf("estimator fraction after exhausting the resume = %v, want 1", f)
	}
	if est.Trees() != ref.StandTrees || est.States() != ref.IntermediateStates ||
		est.DeadEnds() != ref.DeadEnds {
		t.Fatalf("estimator counters %d/%d/%d != %d/%d/%d",
			est.Trees(), est.States(), est.DeadEnds(),
			ref.StandTrees, ref.IntermediateStates, ref.DeadEnds)
	}
}

// TestCheckpointResumeEmptyFrontier: resuming a checkpoint whose frontier
// is empty (the run was actually finished when snapshotted) returns
// immediately with the checkpoint's counters and StopExhausted.
func TestCheckpointResumeEmptyFrontier(t *testing.T) {
	cons := chainConstraints(2)
	cp := search.NewFrontierCheckpoint(cons, 0, 0,
		search.Counters{StandTrees: 42, IntermediateStates: 99, DeadEnds: 7},
		&search.Frontier{Threads: 4})
	res, err := Run(cons, Options{Threads: 4, Limits: unlimited(), Checkpoint: search.CheckpointPolicy{Resume: roundTrip(t, cp)}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stop != search.StopExhausted {
		t.Fatalf("stop = %v", res.Stop)
	}
	if res.StandTrees != 42 || res.IntermediateStates != 99 || res.DeadEnds != 7 {
		t.Fatalf("counters %+v not seeded from the checkpoint", res.Counters)
	}
}

// TestCheckpointRejectsWrongInputParallel: the parallel resume path applies
// the same fingerprint/version validation as the serial one. The stand is
// large enough that the cancel lands before the run ends: on chainConstraints(3)
// it ended first three times in four, and the test skipped.
func TestCheckpointRejectsWrongInputParallel(t *testing.T) {
	cons := chainConstraints(4)
	rng := rand.New(rand.NewSource(4242))
	other := randomScenario(rng, 10, 2, 4, 0.55)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	n := 0
	res, err := Run(cons, Options{
		Threads: 4, InitialTree: -1, Limits: unlimited(), Ctx: ctx,
		Checkpoint: search.CheckpointPolicy{OnStop: true},
		OnTree: func(string) {
			if n++; n == 5 {
				cancel()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Checkpoint == nil {
		t.Skip("run finished before cancellation")
	}
	if _, err := Run(other, Options{Threads: 2, Limits: unlimited(), Checkpoint: search.CheckpointPolicy{Resume: res.Checkpoint}}); err == nil {
		t.Fatal("expected fingerprint mismatch on foreign input")
	}
	bad := *res.Checkpoint
	bad.Version = 99
	if _, err := Run(cons, Options{Threads: 2, Limits: unlimited(), Checkpoint: search.CheckpointPolicy{Resume: &bad}}); err == nil {
		t.Fatal("expected version error")
	}
}

// TestCheckpointBackToBackQuiesce: rounds in immediate succession (a slow
// OnTree sink keeps each one draining while the next request is already
// waiting). A round can start while workers released by the previous one
// have not woken yet; they still count as idle, and its cut is complete
// anyway because what they handed in is back in the queue — the barrier
// this replaced once satisfied itself from stale parked counts and silently
// dropped all in-flight work. Every snapshot must resume to exact totals.
func TestCheckpointBackToBackQuiesce(t *testing.T) {
	cons := chainConstraints(5)
	ref, err := Run(cons, Options{Threads: 4, InitialTree: -1, Limits: unlimited()})
	if err != nil {
		t.Fatal(err)
	}
	trigger := search.NewCheckpointTrigger()
	done := make(chan *Result, 1)
	go func() {
		res, err := Run(cons, Options{
			Threads: 4, InitialTree: -1, Limits: unlimited(),
			// A throttled sink keeps the tree channel full, so rounds spend
			// real time in drainTrees and requests arrive back-to-back.
			OnTree:     func(string) { time.Sleep(50 * time.Microsecond) },
			Checkpoint: search.CheckpointPolicy{Trigger: trigger},
		})
		if err != nil {
			t.Error(err)
		}
		done <- res
	}()

	var cps []*search.Checkpoint
	for i := 0; i < 8; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		cp, err := trigger.Request(ctx)
		cancel()
		if err != nil {
			break // the run ended; whatever we collected is enough
		}
		if cp != nil {
			cps = append(cps, cp)
		}
	}
	res := <-done
	if res.Counters != ref.Counters {
		t.Fatalf("live run disturbed by back-to-back snapshots: %+v != %+v", res.Counters, ref.Counters)
	}
	if len(cps) == 0 {
		t.Skip("run ended before any snapshot landed")
	}
	for i, cp := range cps {
		got, err := Run(cons, Options{Threads: 4, Limits: unlimited(), Checkpoint: search.CheckpointPolicy{Resume: roundTrip(t, cp)}})
		if err != nil {
			t.Fatalf("resuming snapshot %d: %v", i, err)
		}
		if got.Counters != ref.Counters {
			t.Fatalf("snapshot %d (of %d) dropped work: resumed totals %+v, want %+v",
				i, len(cps), got.Counters, ref.Counters)
		}
	}
}

// TestCheckpointHostilePrefix: a checkpoint that passes the fingerprint check
// but carries a prefix path no run could have written — the supplied-file
// trust boundary of gentriusd and the fleet workers — is an error from Run.
// Before the prefix was validated at set-up every worker replayed it blindly
// outside the task recover barrier, and the first bad step killed the
// process (index out of range in Tree.AttachLeaf).
func TestCheckpointHostilePrefix(t *testing.T) {
	cons := chainConstraints(3)
	good, err := search.Start(cons, -1, 0, nil, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	cp := good.Checkpoint(good.Counters, 4, good.Frontier.Tasks)
	if res, err := Run(cons, Options{Threads: 3, Limits: unlimited(),
		Checkpoint: search.CheckpointPolicy{Resume: roundTrip(t, cp)}}); err != nil || res.Stop != search.StopExhausted {
		t.Fatalf("the untampered checkpoint: %+v, %v", res, err)
	}
	tr := good.NewTerrace()
	pending := tr.MissingTaxa()[0]
	legal := search.PathStep{Taxon: pending, Edge: tr.AllowedBranches(pending)[0]}
	for name, prefix := range map[string][]search.PathStep{
		"bad edge":       {{Taxon: pending, Edge: 99999}},
		"bad taxon":      {{Taxon: 99999, Edge: 0}},
		"repeated taxon": {legal, legal},
	} {
		bad := *cp
		bad.Frontier = &search.Frontier{Prefix: prefix, Threads: 4, Tasks: cp.Frontier.Tasks}
		for _, threads := range []int{1, 3} {
			_, err := Run(cons, Options{Threads: threads, Limits: unlimited(),
				Checkpoint: search.CheckpointPolicy{Resume: roundTrip(t, &bad)}})
			if err == nil || !strings.Contains(err.Error(), "search: checkpoint prefix step") {
				t.Errorf("%s at %d threads: Run returned %v, want a prefix error", name, threads, err)
			}
		}
	}
}
