package search

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"gentrius/internal/gen"
	"gentrius/internal/obs"
	"gentrius/internal/terrace"
	"gentrius/internal/tree"
)

// corpusStands returns the first want datasets of a regime's generated corpus
// (small dimensions, so that the oracle is quick) whose stand the serial
// runner enumerates to the end within a few thousand states and trees.
func corpusStands(t *testing.T, regime gen.Regime, want int) []gen.Dataset {
	t.Helper()
	cfg := gen.Default(regime)
	cfg.MinTaxa, cfg.MaxTaxa = 16, 48
	var out []gen.Dataset
	for idx := 0; idx < 300 && len(out) < want; idx++ {
		ds := gen.Generate(cfg, idx)
		res, err := Run(ds.Constraints, Options{InitialTree: -1, Limits: Limits{MaxTrees: 20_000, MaxStates: 20_000, MaxTime: -1}})
		if err != nil {
			t.Fatalf("%s: %v", ds.Name, err)
		}
		if res.Stop == StopExhausted && res.StandTrees >= 20 {
			out = append(out, *ds)
		}
	}
	if len(out) < want {
		t.Fatalf("%v corpus: %d of %d stands found", regime, len(out), want)
	}
	return out
}

// TestFinalFramesMatchLeafByLeaf is the differential test of the step loop:
// on stands of both corpus regimes, under all three dynamic heuristics and
// two static orders, the runner — which never inserts a last taxon — reports
// the counters, the trees byte for byte and in order, the estimator mass and
// the paper-unit step count of the machine that inserts and removes every
// one.
func TestFinalFramesMatchLeafByLeaf(t *testing.T) {
	type order struct {
		name    string
		h       OrderHeuristic
		static  bool
		shuffle int64
	}
	orders := []order{
		{name: "min-branches", h: OrderMinBranches},
		{name: "tie-degree", h: OrderMinBranchesTieDegree},
		{name: "max-branches", h: OrderMaxBranches},
		{name: "static ascending", static: true},
		{name: "static shuffled", static: true, shuffle: 7},
	}
	compared, trees := 0, int64(0)
	for _, regime := range []gen.Regime{gen.RegimeSimulated, gen.RegimeEmpirical} {
		for _, ds := range corpusStands(t, regime, 5) {
			for _, ord := range orders {
				est := &obs.Estimator{}
				got, err := Run(ds.Constraints, Options{InitialTree: -1, Heuristic: ord.h,
					DisableDynamicOrder: ord.static, ShuffleSeed: ord.shuffle,
					Limits: Limits{MaxTrees: -1, MaxStates: 100_000, MaxTime: -1}, CollectTrees: true, Estimator: est})
				if err != nil {
					t.Fatal(err)
				}
				if got.Stop != StopExhausted {
					continue // this order makes the stand too expensive for the oracle
				}
				tr, err := terrace.New(ds.Constraints, got.InitialIndex)
				if err != nil {
					t.Fatal(err)
				}
				want := refEnumerate(tr, ord.h)
				if ord.static {
					seq := append([]int(nil), tr.MissingTaxa()...)
					if ord.shuffle != 0 {
						rand.New(rand.NewSource(ord.shuffle)).Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
					}
					want = &leafByLeaf{tr: tr, next: func() int { return seq[tr.Depth()] }}
					want.run()
				}
				if got.Counters != want.Counters || got.Steps != want.steps+1 {
					t.Fatalf("%s %s: %+v in %d steps, leaf by leaf %+v in %d", ds.Name, ord.name,
						got.Counters, got.Steps, want.Counters, want.steps+1)
				}
				if !slices.Equal(got.Trees, want.trees) {
					t.Fatalf("%s %s: the %d trees differ from the oracle's, or their order does", ds.Name, ord.name, len(got.Trees))
				}
				if est.Leaves() != want.leaves || math.Abs(est.Fraction()-want.mass) > 1e-9 {
					t.Fatalf("%s %s: estimator %d leaves, mass %.15f; leaf by leaf %d, %.15f", ds.Name, ord.name,
						est.Leaves(), est.Fraction(), want.leaves, want.mass)
				}
				compared++
				trees += want.StandTrees
			}
		}
	}
	if compared < 40 || trees < 10_000 {
		t.Fatalf("%d runs and %d trees compared: not enough to mean anything", compared, trees)
	}
}

// smallStand returns a random stand of a few dozen to a few hundred states.
func smallStand(t *testing.T, seed int64) []*tree.Tree {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 200; i++ {
		cons := randomScenario(rng, 11, 3, 4, 0.5)
		res, err := Run(cons, Options{InitialTree: -1})
		if err != nil {
			t.Fatal(err)
		}
		if res.IntermediateStates >= 40 && res.IntermediateStates <= 400 && res.StandTrees >= 100 {
			return cons
		}
	}
	t.Fatal("no scenario of the wanted size")
	return nil
}

// TestCheckpointAtEveryStepBoundary snapshots a serial engine between every
// two steps of a small stand. Each snapshot resumes to the serial totals and
// delivers exactly the trees not delivered before it, in order, and its
// remaining mass and the mass of the leaves closed so far make 1. Before each
// final frame the snapshot is also rewritten into every state the paper's
// machine passes through inside the frame — the last taxon inserted on one
// of the branches, which is what a checkpoint file of an older engine holds —
// and must resume the same way: one removal, then the rest of the frame.
func TestCheckpointAtEveryStepBoundary(t *testing.T) {
	cons := smallStand(t, 2121)
	unlimited := Limits{MaxTrees: -1, MaxStates: -1, MaxTime: -1}
	ref, err := Run(cons, Options{InitialTree: -1, Limits: unlimited, CollectTrees: true})
	if err != nil {
		t.Fatal(err)
	}
	resume := func(what string, cp *Checkpoint, delivered int) {
		t.Helper()
		var raw bytes.Buffer
		if err := cp.Write(&raw); err != nil {
			t.Fatal(err)
		}
		back, err := ReadCheckpoint(&raw)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(cons, Options{Limits: unlimited, CollectTrees: true, Checkpoint: CheckpointPolicy{Resume: back}})
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if res.Counters != ref.Counters || !slices.Equal(res.Trees, ref.Trees[delivered:]) {
			t.Fatalf("%s: resumed to %+v with %d trees after %d, the serial run %+v with %d",
				what, res.Counters, len(res.Trees), delivered, ref.Counters, len(ref.Trees))
		}
	}

	tr, err := terrace.New(cons, ref.InitialIndex)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(tr)
	delivered, mass := 0, 0.0
	eng.OnTree = func(string) { delivered++ }
	eng.OnLeaf = func(m float64, _ int64) { mass += m }
	boundaries, inside := 0, 0
	for {
		before := eng.Snapshot(cons, ref.InitialIndex)
		at := delivered
		ev := eng.Step()
		if ev == EvDone {
			break
		}
		if _, branches := eng.FinalFrame(); ev == EvTreeFound {
			top := &before.Frames[len(before.Frames)-1]
			if top.Inserted || len(top.Branches)-top.Idx != len(branches) {
				t.Fatalf("a final frame of %d was cut from %+v", len(branches), top)
			}
			for k := 1; k <= len(branches); k++ {
				top.Idx++
				top.Inserted = true
				before.Counters.StandTrees++
				resume("inside a final frame", before, at+k)
				inside++
			}
		}
		cp := eng.Snapshot(cons, ref.InitialIndex)
		fr, err := cp.FrontierView()
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(mass+fr.RemainingMass()-1) > 1e-12 {
			t.Fatalf("boundary %d: closed mass %.15f and remaining mass %.15f do not make 1", boundaries, mass, fr.RemainingMass())
		}
		resume("a step boundary", cp, delivered)
		boundaries++
	}
	if w := eng.Work(); w.Units+1 != ref.Steps || int64(boundaries) >= w.Units || inside != len(ref.Trees) {
		t.Fatalf("%d boundaries, %d states inside final frames, work %+v; the serial run took %d steps for %d trees",
			boundaries, inside, w, ref.Steps, len(ref.Trees))
	}
}

// TestFinalFrameBlocks: the trees of a final frame leave as any others do.
// The run's first tree reaches OnTrees alone, before the second is rendered;
// a block is cut at BlockSize inside a frame; no block spans a FlushTrees;
// and OnTree gets one string per tree in the same order.
func TestFinalFrameBlocks(t *testing.T) {
	cons := midStand(t, 1717)
	ref, err := Run(cons, Options{InitialTree: -1, CollectTrees: true})
	if err != nil {
		t.Fatal(err)
	}
	newEngine := func() *Engine {
		tr, err := terrace.New(cons, ref.InitialIndex)
		if err != nil {
			t.Fatal(err)
		}
		return NewEngine(tr)
	}

	want := strings.Join(ref.Trees, "\n") + "\n"
	for _, flushEvery := range []int{0, 97} {
		eng := newEngine()
		var out []byte
		blocks, cutInside := 0, 0
		eng.OnTrees = func(block []byte, n int) []byte {
			checkBlock(t, block, n)
			if e := eng.Work().Emit; blocks == 0 && (n != 1 || e.Spliced+e.Recut != 1) {
				t.Fatalf("the first block holds %d trees, %+v rendered by then", n, e)
			}
			if len(block) > BlockSize {
				t.Fatalf("a block of %d bytes", len(block))
			}
			out = append(out, block...)
			blocks++
			return block
		}
		for steps := 1; ; steps++ {
			was := blocks
			if eng.Step() == EvDone {
				break
			}
			if was > 0 && blocks > was && eng.pending > 0 {
				cutInside++ // the step's frame began in one block and ended in the next
			}
			if flushEvery > 0 && steps%flushEvery == 0 {
				eng.FlushTrees()
				if eng.pending != 0 || len(eng.block) != 0 {
					t.Fatalf("FlushTrees left %d trees in the block", eng.pending)
				}
			}
			// Handed on and held make what was found so far: no tree waits
			// across a flush, none is ahead of its count.
			held := want[len(out):][:len(eng.block)]
			if found := int(eng.Counters().StandTrees); string(eng.block) != held || len(out)+len(held) != len(want)/len(ref.Trees)*found {
				t.Fatalf("after step %d: %d bytes handed on and %d held for %d trees", steps, len(out), len(eng.block), found)
			}
		}
		eng.FlushTrees()
		if string(out) != want {
			t.Fatalf("%d bytes in %d blocks, want %d", len(out), blocks, len(want))
		}
		if flushEvery == 0 && cutInside == 0 {
			t.Fatalf("none of %d blocks was cut inside a final frame", blocks)
		}
	}

	// One string per tree, in order, each handed on before the next is rendered.
	eng := newEngine()
	var got []string
	eng.OnTree = func(nw string) {
		got = append(got, nw)
		if e := eng.Work().Emit; e.Spliced+e.Recut != int64(len(got)) {
			t.Fatalf("tree %d handed on after %+v were rendered", len(got), e)
		}
	}
	for eng.Step() != EvDone {
	}
	if !slices.Equal(got, ref.Trees) {
		t.Fatalf("OnTree got %d trees, the run %d, or another order", len(got), len(ref.Trees))
	}
}

// finalCounter is a fakeHost that counts the offers of final frames: those
// whose path holds every missing taxon but one.
type finalCounter struct {
	*fakeHost
	depth, final int
}

func (h *finalCounter) Offer(path []PathStep, f *Frame, n int) int {
	if len(path) == h.depth {
		h.final++
	}
	return h.fakeHost.Offer(path, f, n)
}

// TestStolenFinalFrame: with the depth restriction lifted a worker hands off
// half of a final frame like half of any other. The task is one uninserted
// frame whose taxon is the last one missing; whoever begins it consumes it in
// one step, and the stand comes out whole.
func TestStolenFinalFrame(t *testing.T) {
	su, ref := wholeStand(t, midStand(t, 1717))
	h := &finalCounter{fakeHost: &fakeHost{take: 1 << 30}}
	w := su.NewWorker(Policy{MinRemaining: 1}.Normalize(2), h, nil, true)
	h.depth = len(w.t.MissingTaxa()) - w.base - 1
	drain(t, w, h.fakeHost, su.Frontier.Tasks[0])
	got := su.Counters
	got.Add(h.total)
	if h.final == 0 || got != ref.Counters || !slices.Equal(sortedCopy(h.trees), sortedCopy(ref.Trees)) {
		t.Fatalf("%d final frames handed off; %+v and %d trees, the serial run %+v and %d",
			h.final, got, len(h.trees), ref.Counters, len(ref.Trees))
	}
}
