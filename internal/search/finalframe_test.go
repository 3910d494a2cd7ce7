package search

import (
	"bytes"
	"fmt"
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

// lookAheadFixtures are stands of the paper-shaped simulated corpus
// (gen.Default, as the benchmark draws them) on which, under min-branches, a
// counting run answers every penultimate branch by looking ahead, or none:
// on 6 and 7 the last two taxa share a target in some constraint wherever the
// second-to-last goes, so every branch falls back to the insertion.
var lookAheadFixtures = map[int]bool{6: false, 7: false, 12: true, 16: true}

// TestFinalFramesMatchLeafByLeaf is the differential test of the step loop:
// on stands of both corpus regimes, under all three dynamic heuristics and
// two static orders, the runner — which never inserts a last taxon, nor a
// second-to-last one whose count the Terrace can tell, rendering or not —
// reports the counters, the trees byte for byte and in order, the estimator
// mass and the paper-unit step count of the machine that inserts and removes
// every one. The counting run's ExtendTaxon calls and booked insertions are
// its states less the branches it looked ahead of; the rendering run books,
// looks ahead, falls back, takes whole and inserts exactly what the counting
// run does, on every stand, from the heuristic's initial tree and from the
// first constraint that lacks the stand's lowest taxon (initialTrees).
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
	compared, across, trees := 0, 0, int64(0)
	var counting Work
	for _, regime := range []gen.Regime{gen.RegimeSimulated, gen.RegimeEmpirical} {
		stands := corpusStands(t, regime, 5)
		fixtures := map[string]bool{}
		if regime == gen.RegimeSimulated {
			for idx, all := range lookAheadFixtures {
				ds := gen.Generate(gen.Default(regime), idx)
				stands, fixtures[ds.Name] = append(stands, *ds), all
			}
		}
		for _, ds := range stands {
			for _, initial := range initialTrees(ds.Constraints) {
				for _, ord := range orders {
					if _, is := fixtures[ds.Name]; is && ord != orders[0] {
						continue // a fixture is one for min-branches, and large for the oracle
					}
					run := fmt.Sprintf("%s from tree %d", ord.name, initial)
					opt := Options{InitialTree: initial, Heuristic: ord.h,
						DisableDynamicOrder: ord.static, ShuffleSeed: ord.shuffle,
						Limits: Limits{MaxTrees: -1, MaxStates: 100_000, MaxTime: -1}}
					est, cest := &obs.Estimator{}, &obs.Estimator{}
					opt.Obs = &obs.Sink{Estimate: cest}
					count, err := Run(ds.Constraints, opt)
					if err != nil {
						t.Fatal(err)
					}
					if count.Stop != StopExhausted {
						continue // this order makes the stand too expensive for the oracle
					}
					opt.CollectTrees, opt.Obs = true, &obs.Sink{Estimate: est}
					got, err := Run(ds.Constraints, opt)
					if err != nil {
						t.Fatal(err)
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
						t.Fatalf("%s %s: %+v in %d steps, leaf by leaf %+v in %d", ds.Name, run,
							got.Counters, got.Steps, want.Counters, want.steps+1)
					}
					if !slices.Equal(got.Trees, want.trees) {
						t.Fatalf("%s %s: the %d trees differ from the oracle's, or their order does", ds.Name, run, len(got.Trees))
					}
					if est.Leaves() != want.leaves || math.Abs(est.Fraction()-want.mass) > 1e-9 {
						t.Fatalf("%s %s: estimator %d leaves, mass %.15f; leaf by leaf %d, %.15f", ds.Name, run,
							est.Leaves(), est.Fraction(), want.leaves, want.mass)
					}
					// The run that renders nothing: the same numbers — the mass bit
					// for bit what the rendering run made of it.
					if count.Counters != got.Counters || count.Steps != got.Steps || count.Stop != got.Stop ||
						cest.Leaves() != est.Leaves() || cest.Fraction() != est.Fraction() {
						t.Fatalf("%s %s: counting %+v in %d steps (%v), mass %.17f of %d leaves; rendering %+v in %d (%v), %.17f of %d", ds.Name, run,
							count.Counters, count.Steps, count.Stop, cest.Fraction(), cest.Leaves(), got.Counters, got.Steps, got.Stop, est.Fraction(), est.Leaves())
					}
					// And the rendering run did the counting run's work: the same
					// insertions made and booked, the same branches looked ahead of
					// and fallen back from, the same subtrees taken whole.
					w, gw := count.Work, got.Work
					if inserted(w) != count.IntermediateStates-w.LookAheads || !sameWork(gw, w) {
						t.Fatalf("%s %s: counting work %+v, rendering work %+v for %d states", ds.Name, run, w, got.Work, count.IntermediateStates)
					}
					if all, is := fixtures[ds.Name]; is && initial == -1 && // a fixture is one from the heuristic's tree
						(w.LookAheads+w.Fallbacks == 0 || all && w.Fallbacks != 0 || !all && w.LookAheads != 0) {
						t.Fatalf("%s: fixture of all look-ahead %v did %+v", ds.Name, all, w)
					}
					counting.Add(w)
					compared++
					if initial >= 0 {
						across++
					}
					trees += want.StandTrees
				}
			}
		}
	}
	if compared < 80 || across < 40 || trees < 10_000 || counting.LookAheads < 1000 || counting.Fallbacks < 1000 || counting.Booked < 1000 {
		t.Fatalf("%d runs (%d from a tree without the lowest taxon) and %d trees compared, counting runs did %+v: not enough to mean anything",
			compared, across, trees, counting)
	}
}

// initialTrees is -1, the heuristic's pick, and the first constraint that
// lacks the stand's lowest taxon where one does: from it a rendering run's
// Newick writer derives across a taxon that sorts before every leaf.
func initialTrees(cons []*tree.Tree) []int {
	for i, c := range cons {
		if !c.HasTaxon(0) {
			return []int{-1, i}
		}
	}
	return []int{-1}
}

// inserted counts the insertions a run made, by ExtendTaxon or by booking.
func inserted(w Work) int64 { return w.Extends + w.Booked - w.Materialized }

// sameWork reports whether a rendering run's work is the counting run's:
// the same insertions made, booked and made for real afterwards, the same
// branches looked ahead of or fallen back from and the same subtrees taken
// whole.
func sameWork(render, count Work) bool {
	render.Emit = count.Emit
	return render == count
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
// and must resume the same way: one removal, then the rest of the frame; and
// so before each look-ahead step, into the states inside its branch — the
// second-to-last taxon inserted, the last on one of the edges the step cut
// trees for. Both engines, the one that renders nothing and the one that
// renders, are cut between two look-ahead steps of one penultimate frame,
// stacks the inserting engine passes through after a removal, and each cut
// resumes to the serial totals whether the resumed run looks ahead in its
// turn or collects the trees, to the same bytes. The counting engine is also
// cut inside booked insertions — on the stack and not in the Terrace — and
// each such cut resumes, replaying the insertions for real, to the serial
// totals.
func TestCheckpointAtEveryStepBoundary(t *testing.T) {
	cons := smallStand(t, 2131)
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
		back, err := ReadCheckpoint(bytes.NewReader(raw.Bytes()))
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
		if back, err = ReadCheckpoint(bytes.NewReader(raw.Bytes())); err != nil {
			t.Fatal(err)
		}
		est := &obs.Estimator{}
		res, err = Run(cons, Options{Limits: unlimited, Obs: &obs.Sink{Estimate: est}, Checkpoint: CheckpointPolicy{Resume: back}})
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if res.Counters != ref.Counters || math.Abs(est.Fraction()-1) > 1e-12 {
			t.Fatalf("%s: resumed counting to %+v and mass %.15f, the serial run %+v", what, res.Counters, est.Fraction(), ref.Counters)
		}
	}

	tr, err := terrace.New(cons, ref.InitialIndex)
	if err != nil {
		t.Fatal(err)
	}
	// The counting engine first: the cuts only it has, between two look-ahead
	// steps of one frame (the step before took nothing off the stack but idx).
	eng := NewEngine(tr)
	mass, boundaries, between, booked := 0.0, 0, 0, 0
	eng.OnLeaf = func(m float64, _ int64) { mass += m }
	for prev := EvDone; ; {
		ev := eng.Step()
		if ev == EvDone {
			break
		}
		cp := engineCheckpoint(eng, cons, ref.InitialIndex)
		if err := cp.Validate(cons); err != nil {
			t.Fatal(err)
		}
		fr := cp.Frontier
		if math.Abs(mass+fr.RemainingMass()-1) > 1e-12 {
			t.Fatalf("counting boundary %d: closed mass %.15f and remaining mass %.15f do not make 1", boundaries, mass, fr.RemainingMass())
		}
		frames := fr.Tasks[0].Frames
		if top := frames[len(frames)-1]; ev == EvLookAhead && prev == EvLookAhead && top.Idx < len(top.Branches) {
			if top.Inserted {
				t.Fatalf("a look-ahead step left %+v inserted", top)
			}
			between++
		}
		if eng.ov.Len() > 0 {
			booked++
		}
		resume("a counting step boundary", cp, int(eng.Counters().StandTrees))
		boundaries++
		prev = ev
	}
	if w := eng.Work(); eng.Counters() != ref.Counters || w.Units+1 != ref.Steps || between == 0 || booked == 0 ||
		w.LookAheads == 0 || w.Fallbacks == 0 || w.Booked == 0 || w.Extends+w.Booked-w.Materialized != ref.IntermediateStates-w.LookAheads {
		t.Fatalf("%d counting boundaries, %d between look-ahead steps of one frame, %d inside booked insertions, work %+v, %+v; the serial run %+v in %d steps",
			boundaries, between, booked, w, eng.Counters(), ref.Counters, ref.Steps)
	}

	eng = NewEngine(tr)
	delivered, inside := 0, 0
	mass, boundaries, between = 0, 0, 0
	eng.OnTree = func(string) { delivered++ }
	eng.OnLeaf = func(m float64, _ int64) { mass += m }
	for prev := EvDone; ; {
		before := engineCheckpoint(eng, cons, ref.InitialIndex)
		stack := &before.Frontier.Tasks[0].Frames
		at := delivered
		ev := eng.Step()
		eng.FlushTrees() // the step's trees, before the counters that count them are cut
		if ev == EvDone {
			break
		}
		last, branches := eng.FinalFrame()
		switch ev {
		case EvTreeFound:
			top := &(*stack)[len(*stack)-1]
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
		case EvLookAhead:
			// The branch inserted, then the last taxon on each of the edges the
			// step cut its trees for: the states the insertion passes through.
			top := &(*stack)[len(*stack)-1]
			if step := eng.LookedAhead(); top.Inserted || top.Branches[top.Idx] != step.Edge || delivered-at != len(branches) {
				t.Fatalf("a look-ahead step at %+v cut %d trees from %+v", step, delivered-at, top)
			}
			if prev == EvLookAhead && top.Idx > 0 {
				between++
			}
			if len(branches) == 0 {
				break // a dead end: nothing inside
			}
			top.Idx++
			top.Inserted = true
			before.Counters.IntermediateStates++
			*stack = append(*stack, FrameSnapshot{Taxon: last, Branches: branches,
				Weight: top.Weight / float64(len(branches))})
			z := &(*stack)[len(*stack)-1]
			for k := 1; k <= len(branches); k++ {
				z.Idx++
				z.Inserted = true
				before.Counters.StandTrees++
				resume("inside a looked-ahead branch", before, at+k)
				inside++
			}
		}
		prev = ev
		cp := engineCheckpoint(eng, cons, ref.InitialIndex)
		if err := cp.Validate(cons); err != nil {
			t.Fatal(err)
		}
		fr := cp.Frontier
		if math.Abs(mass+fr.RemainingMass()-1) > 1e-12 {
			t.Fatalf("boundary %d: closed mass %.15f and remaining mass %.15f do not make 1", boundaries, mass, fr.RemainingMass())
		}
		resume("a step boundary", cp, delivered)
		boundaries++
	}
	if w := eng.Work(); w.Units+1 != ref.Steps || int64(boundaries) >= w.Units || inside != len(ref.Trees) ||
		between == 0 || w.LookAheads == 0 || w.Fallbacks == 0 || w.Booked == 0 || w.Extends+w.Booked-w.Materialized != ref.IntermediateStates-w.LookAheads {
		t.Fatalf("%d boundaries, %d between look-ahead steps of one frame, %d states inside final frames and looked-ahead branches, work %+v; the serial run took %d steps for %d trees",
			boundaries, between, inside, w, ref.Steps, len(ref.Trees))
	}
}

// TestFinalFrameBlocks: the trees of a final frame leave as any others do.
// The run's first tree reaches OnTrees alone, before the second is rendered;
// a block is cut at BlockSize inside a frame; no block spans a FlushTrees;
// and OnTree gets the trees of each block as strings, in the same order.
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

	// One string per tree, the trees of OnTrees' blocks of the same run, in
	// order, and the last block handed on when the space is exhausted.
	eng := newEngine()
	var got []string
	var blocks []byte
	eng.OnTree = func(nw string) { got = append(got, nw) }
	eng.OnTrees = func(block []byte, n int) []byte {
		if cut := strings.Join(got[len(got)-n:], "\n") + "\n"; string(block) != cut {
			t.Fatalf("OnTree got %q before the block %q", cut, block)
		}
		blocks = append(blocks, block...)
		return block
	}
	for eng.Step() != EvDone {
	}
	if !slices.Equal(got, ref.Trees) || string(blocks) != want {
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

// TestStolenPenultimateFrame is TestStolenFinalFrame one level up. A worker
// pushes a final frame only under a branch it could not look ahead of, so the
// deepest frames it hands off halves of are mostly penultimate ones; such a
// task is one uninserted frame with two taxa missing, and whoever begins it
// answers it branch by branch without inserting anything below the replayed
// path — rendering the trees from one walk of the task's state, if it renders.
// A worker, rendering or not, offers penultimate frames it pushed under
// booked insertions too: their paths hold the booked step, which the thief
// replays.
func TestStolenPenultimateFrame(t *testing.T) {
	su, ref := wholeStand(t, smallStand(t, 2131))
	for _, trees := range []bool{false, true} {
		h := &finalCounter{fakeHost: &fakeHost{take: 1 << 30}}
		w := su.NewWorker(Policy{MinRemaining: 1}.Normalize(2), h, nil, trees)
		h.depth = len(w.t.MissingTaxa()) - w.base - 2
		stolen := 0
		h.begun = func(task FrontierTask) {
			if len(task.Path) == h.depth {
				stolen++
				if f := task.Frames; len(f) != 1 || f[0].Inserted || f[0].Idx != 0 {
					t.Fatalf("a stolen penultimate frame is %+v", f)
				}
			}
		}
		drain(t, w, h.fakeHost, su.Frontier.Tasks[0])
		got := su.Counters
		got.Add(h.total)
		work := w.Work()
		if h.final == 0 || stolen != h.final || got != ref.Counters || work.LookAheads == 0 || work.Fallbacks == 0 ||
			work.Extends+work.Booked-work.Materialized != h.total.IntermediateStates-work.LookAheads || work.Booked == 0 ||
			trees && !slices.Equal(sortedCopy(h.trees), sortedCopy(ref.Trees)) {
			t.Fatalf("rendering %v: %d penultimate frames handed off, %d begun; %+v and %d trees for work %+v, the serial run %+v",
				trees, h.final, stolen, got, len(h.trees), work, ref.Counters)
		}
	}
}

// TestTreeLimitOvershoot pins what not dividing a step costs a tree limit: a
// run that checks after every step passes it by less than one step's trees,
// and neither a final frame nor a look-ahead step finds more than the 2n-3
// branches of a tree on n taxa. The checkpoint of the stop resumes to the
// stand.
func TestTreeLimitOvershoot(t *testing.T) {
	cons := smallStand(t, 2131)
	n := int64(cons[0].Taxa().Len())
	whole, err := Run(cons, Options{InitialTree: -1})
	if err != nil {
		t.Fatal(err)
	}
	worst := int64(0)
	for limit := int64(1); limit < whole.StandTrees; limit += 7 {
		for _, collect := range []bool{false, true} {
			res, err := Run(cons, Options{InitialTree: -1, CheckEvery: 1, CollectTrees: collect,
				Limits: Limits{MaxTrees: limit, MaxStates: -1, MaxTime: -1}, Checkpoint: CheckpointPolicy{OnStop: true}})
			if err != nil {
				t.Fatal(err)
			}
			over := res.StandTrees - limit
			if res.Stop != StopTreeLimit || over < 0 || over >= 2*n-3 || res.Checkpoint == nil {
				t.Fatalf("limit %d (collecting %v): stopped for %v at %d trees, %d taxa", limit, collect, res.Stop, res.StandTrees, n)
			}
			worst = max(worst, over)
			rest, err := Run(cons, Options{Limits: Limits{MaxTrees: -1, MaxStates: -1, MaxTime: -1}, Checkpoint: CheckpointPolicy{Resume: res.Checkpoint}})
			if err != nil {
				t.Fatal(err)
			}
			if rest.Counters != whole.Counters {
				t.Fatalf("limit %d (collecting %v): resumed to %+v, the stand is %+v", limit, collect, rest.Counters, whole.Counters)
			}
		}
	}
	if worst == 0 {
		t.Fatal("no limit was overshot")
	}
}

// TestRenderingAcrossTheLowestTaxon: on random stands whose initial tree
// lacks the lowest taxon — its insertion roots the trees' rendering anew — a
// rendering run does the counting run's work (Work equal field by field but
// Emit), walks its tree once at most (not at all where the prefix walk
// decides the stand) and finds the leaf-by-leaf machine's trees, byte
// for byte and in order; and the stands whose initial tree holds it, which
// random stands meet too, alike.
func TestRenderingAcrossTheLowestTaxon(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	across, holding, booked := 0, 0, int64(0)
	for scen := 0; scen < 80; scen++ {
		cons := randomScenario(rng, 9+rng.Intn(4), 2+rng.Intn(2), 4, 0.5)
		count, err := Run(cons, Options{InitialTree: -1})
		if err != nil {
			t.Fatal(err)
		}
		got, err := Run(cons, Options{InitialTree: -1, CollectTrees: true})
		if err != nil {
			t.Fatal(err)
		}
		tr, err := newTerrace(cons, got.InitialIndex)
		if err != nil {
			t.Fatal(err)
		}
		want := refEnumerate(tr, OrderMinBranches)
		if got.Counters != want.Counters || count.Counters != want.Counters || !slices.Equal(got.Trees, want.trees) {
			t.Fatalf("scen %d: rendering %+v, counting %+v, leaf by leaf %+v; trees equal %v", scen,
				got.Counters, count.Counters, want.Counters, slices.Equal(got.Trees, want.trees))
		}
		if !sameWork(got.Work, count.Work) || got.Work.Emit.Walks > 1 {
			t.Fatalf("scen %d: rendering work %+v, counting work %+v", scen, got.Work, count.Work)
		}
		booked += got.Work.Booked
		if tr.Agile().HasTaxon(0) {
			holding++
		} else {
			across++
		}
	}
	if across < 5 || holding < 5 || booked == 0 {
		t.Fatalf("%d stands across the lowest taxon, %d holding it, %d insertions booked: not enough to mean anything", across, holding, booked)
	}
}

// TestRenderingFullWriter: on a stand of 1 000 taxa, each of six loci
// missing half of them, the stack of a rendering run outgrows the Newick
// writer's budget (tree.NewickWriter.Full). The run walks the state it stands
// for where it does, its bookings made real, and still finds the
// leaf-by-leaf machine's first 2 000 trees in its order, and up to its tree
// limit looks ahead of, falls back from and inserts what the counting run
// does.
func TestRenderingFullWriter(t *testing.T) {
	cfg := gen.Config{Regime: gen.RegimeSimulated, Seed: 3, MinTaxa: 1000, MaxTaxa: 1000, MinLoci: 6, MaxLoci: 6, MinMissing: 0.5, MaxMissing: 0.5}
	cons := gen.Generate(cfg, 0).Constraints
	const limit = 2000
	lim := Limits{MaxTrees: limit, MaxStates: -1, MaxTime: -1}
	count, err := Run(cons, Options{InitialTree: -1, Limits: lim})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(cons, Options{InitialTree: -1, Limits: lim, CollectTrees: true})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := newTerrace(cons, got.InitialIndex)
	if err != nil {
		t.Fatal(err)
	}
	want := &leafByLeaf{tr: tr, limit: limit}
	deg := refConstraintDegree(tr)
	want.next = func() int { return refNextTaxon(tr, OrderMinBranches, deg) }
	want.run()
	if got.Stop != StopTreeLimit || got.Counters != count.Counters || len(got.Trees) < limit || len(want.trees) != limit ||
		!slices.Equal(got.Trees[:limit], want.trees) {
		t.Fatalf("rendering %+v (%v), counting %+v; %d trees, %d of the leaf-by-leaf machine's, the first %d equal %v", got.Counters, got.Stop,
			count.Counters, len(got.Trees), len(want.trees), limit, slices.Equal(got.Trees[:min(limit, len(got.Trees))], want.trees))
	}
	w, gw := count.Work, got.Work
	if gw.Emit.Walks < 2 || gw.Materialized <= w.Materialized || inserted(gw) != inserted(w) ||
		gw.LookAheads != w.LookAheads || gw.Fallbacks != w.Fallbacks {
		t.Fatalf("rendering work %+v, counting work %+v", gw, w)
	}
}
