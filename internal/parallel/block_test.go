package parallel

import (
	"bytes"
	"errors"
	"slices"
	"strings"
	"testing"

	"gentrius/internal/faultinject"
	"gentrius/internal/gen"
	"gentrius/internal/search"
)

// blockLines appends the lines of a block to lines, failing unless the block
// is n whole lines, n at least one.
func blockLines(t *testing.T, lines []string, block []byte, n int) []string {
	t.Helper()
	if n < 1 || len(block) == 0 || block[len(block)-1] != '\n' || bytes.Count(block, []byte("\n")) != n {
		t.Fatalf("block of %d bytes said to hold %d trees", len(block), n)
	}
	return append(lines, strings.Split(string(block[:len(block)-1]), "\n")...)
}

// TestBlockPathMatchesStringPath runs the generated corpus (both regimes,
// datasets 0-119, capped where a stand is large) through OnTree and through
// OnTrees. Serially the blocks are the strings' bytes in the strings' order,
// whichever stopping rule ended the run; at three threads, on the stands the
// cap leaves whole, the same lines in some order.
func TestBlockPathMatchesStringPath(t *testing.T) {
	limits := search.Limits{MaxTrees: 2000, MaxStates: 4000, MaxTime: -1}
	stride := 1
	if raceEnabled || testing.Short() {
		stride = 8 // CI repeats this test under the race detector
	}
	stands, trees := 0, 0
	for _, regime := range []gen.Regime{gen.RegimeSimulated, gen.RegimeEmpirical} {
		for idx := 0; idx < 120; idx += stride {
			ds := gen.Generate(gen.Default(regime), idx)
			var want []string
			ref, err := search.Run(ds.Constraints, search.Options{InitialTree: -1, Limits: limits,
				OnTree: func(nw string) { want = append(want, nw) }})
			if err != nil {
				t.Fatalf("%s: %v", ds.Name, err)
			}
			var got []string
			res, err := search.Run(ds.Constraints, search.Options{InitialTree: -1, Limits: limits,
				OnTrees: func(block []byte, n int) { got = blockLines(t, got, block, n) }})
			if err != nil {
				t.Fatalf("%s: %v", ds.Name, err)
			}
			if res.Counters != ref.Counters || res.Stop != ref.Stop || !slices.Equal(got, want) {
				t.Fatalf("%s: blocks carry %d trees of a run %+v, strings %d of %+v",
					ds.Name, len(got), res.Counters, len(want), ref.Counters)
			}
			if ref.Stop != search.StopExhausted {
				continue
			}
			got = got[:0]
			par, err := Run(ds.Constraints, Options{Threads: 3, InitialTree: -1, Limits: unlimited(),
				OnTrees: func(block []byte, n int) { got = blockLines(t, got, block, n) }})
			if err != nil {
				t.Fatalf("%s: %v", ds.Name, err)
			}
			if par.Counters != ref.Counters {
				t.Fatalf("%s: pool counted %+v, serial run %+v", ds.Name, par.Counters, ref.Counters)
			}
			sameStand(t, ds.Name+" at three threads", got, want)
			stands, trees = stands+1, trees+len(want)
		}
	}
	t.Logf("%d whole stands, %d trees", stands, trees)
	if stands < 100/stride {
		t.Fatalf("only %d of %d stands were enumerated whole", stands, 240/stride)
	}
}

// TestBlockPanicFailsRun: the trees a worker has rendered but not handed on
// go down with its run when a task panics: the run fails, and what the sink
// saw is whole blocks, a prefix of the stand in the order the uninterrupted
// run hands it on — no tree twice, none cut. One worker (the serial host, and
// the pool at one thread with stealing off) runs the four tasks of a
// four-way split one after another, so the injected step is the same step on
// every run: a quarter, half way and three steps before the end.
func TestBlockPanicFailsRun(t *testing.T) {
	cons := chainConstraints(5)
	ref, err := search.Run(cons, search.Options{InitialTree: -1, Limits: unlimited(), CollectTrees: true})
	if err != nil {
		t.Fatal(err)
	}
	su, err := search.Start(cons, -1, 0, nil, nil, 4)
	if err != nil || len(su.Frontier.Tasks) != 4 {
		t.Fatalf("set-up: %v, %d tasks", err, len(su.Frontier.Tasks))
	}
	cp := roundTrip(t, su.Checkpoint(su.Counters, 4, su.Frontier.Tasks))
	run := func(serial bool, nth int64) ([]string, *faultinject.Injector, error) {
		var got []string
		inj := faultinject.New(1).Set(faultinject.EngineStep, faultinject.Rule{Nth: []int64{nth}})
		onTrees := func(block []byte, n int) { got = blockLines(t, got, block, n) }
		ck := search.CheckpointPolicy{Resume: cp}
		if serial {
			_, err := search.Run(cons, search.Options{Limits: unlimited(), Fault: inj, OnTrees: onTrees, Checkpoint: ck})
			return got, inj, err
		}
		_, err := Run(cons, Options{Threads: 1, Limits: unlimited(), Fault: inj,
			Policy: search.Policy{MinRemaining: 1 << 30}, OnTrees: onTrees, Checkpoint: ck})
		return got, inj, err
	}
	for _, serial := range []bool{true, false} {
		clean, all, err := run(serial, -1) // a rule that never fires still counts the steps
		if err != nil {
			t.Fatal(err)
		}
		sameStand(t, "uninterrupted", clean, ref.Trees)
		steps := all.Count(faultinject.EngineStep)
		for _, nth := range []int64{steps / 4, steps / 2, steps - 3} {
			got, inj, err := run(serial, nth)
			var pe *search.PanicError
			if !errors.As(err, &pe) || inj.Fired(faultinject.EngineStep) != 1 {
				t.Fatalf("serial %v, step %d of %d: %v", serial, nth, steps, err)
			}
			if len(got) >= len(clean) || !slices.Equal(got, clean[:len(got)]) {
				t.Fatalf("serial %v, step %d of %d: the sink saw %d trees, not a prefix of the %d the run hands on",
					serial, nth, steps, len(got), len(clean))
			}
		}
	}
}
