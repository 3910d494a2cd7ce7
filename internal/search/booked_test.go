package search

import (
	"crypto/sha256"
	"fmt"
	"slices"
	"testing"
	"unsafe"

	"gentrius/internal/gen"
	"gentrius/internal/obs"
	"gentrius/internal/terrace"
)

// bookedRunsDigest is the SHA-256 of the lines TestBookedRunsStopWhereInsertingRunsDo
// writes at CheckEvery 1, one per counting run: its counters, Steps and stop
// reason. It was taken from the engine that inserted every third-to-last
// taxon it did not look ahead of (commit d5288cc), so a booking engine that
// moved a counter, a step or a stop by one would change it.
const bookedRunsDigest = "f0835e071cd58e6a8ea5070abbe639b3cb060ef92505275142b4a9cb044906f5"

// wholeRunsDigest is the SHA-256 of the lines the same runs write at
// CheckEvery 64 and 1024, where a counting engine takes booked subtrees in
// one step wherever no check or flush falls inside them. It was taken from
// the engine that took every subtree one branch a step (commit ebe9168).
const wholeRunsDigest = "012ccffcc95d2498a272a4e8270308aaeb7647777748482a784061bf2a454173"

// TestBookedRunsStopWhereInsertingRunsDo is the differential test of booked
// insertions, and of booked subtrees taken whole, under the stopping rules.
// On the first 120 stands of both corpus regimes, under the three dynamic
// heuristics and three static orders, with a tree limit and a state limit
// checked every CheckEvery transitions, a counting run and a rendering run
// stop where, when and why each other do: the same counters, Steps and stop
// reason, and the rendering run books, looks ahead, takes whole and inserts
// what the counting run does. After every step (CheckEvery 1) no subtree fits
// between two checks; at CheckEvery 64 and 1024 both take subtrees whole.
// Both runs also close the same leaves with the same estimator mass, bit for
// bit: a subtree taken whole hands on its leaves one by one, as its branches
// would. And the counting runs' counters, Steps and stop reasons are, all of
// them, the inserting engine's (bookedRunsDigest, wholeRunsDigest).
func TestBookedRunsStopWhereInsertingRunsDo(t *testing.T) {
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
		// Seed 7 puts the lower id of the last two taxa first, seed 1 the
		// higher: the frame under a booked insertion is then the static
		// order's, not the lower id's.
		{name: "static shuffled 1", static: true, shuffle: 1},
	}
	digest, wholeDigest := sha256.New(), sha256.New()
	var runs int
	stops := map[StopReason]int{}
	var booked, whole int64
	for _, every := range []int{1, 64, 1024} {
		for _, regime := range []gen.Regime{gen.RegimeSimulated, gen.RegimeEmpirical} {
			for idx := 0; idx < 120; idx++ {
				ds := gen.Generate(gen.Default(regime), idx)
				for k, ord := range orders {
					// A tree limit and a state limit by turns, each with a cap on
					// the other quantity, so that every run stops within a few
					// thousand states.
					lim := Limits{MaxTrees: 1 + int64(idx*37%1000), MaxStates: 2000, MaxTime: -1}
					if (idx+k)%2 == 1 {
						lim = Limits{MaxTrees: 10_000, MaxStates: 1 + int64(idx*53%1000), MaxTime: -1}
					}
					cest, est := &obs.Estimator{}, &obs.Estimator{}
					opt := Options{InitialTree: -1, Heuristic: ord.h, DisableDynamicOrder: ord.static,
						ShuffleSeed: ord.shuffle, CheckEvery: every, Limits: lim, Obs: &obs.Sink{Estimate: cest}}
					count, err := Run(ds.Constraints, opt)
					if err != nil {
						t.Fatalf("%s: %v", ds.Name, err)
					}
					line := fmt.Sprintf("%s %s %d %d: %+v %d %v\n", ds.Name, ord.name, lim.MaxTrees, lim.MaxStates,
						count.Counters, count.Steps, count.Stop)
					if every == 1 {
						digest.Write([]byte(line))
					} else {
						fmt.Fprintf(wholeDigest, "every %d %s", every, line)
					}
					runs++
					booked += count.Work.Booked
					whole += count.Work.Whole
					opt.OnTrees, opt.Obs = func([]byte, int) {}, &obs.Sink{Estimate: est}
					got, err := Run(ds.Constraints, opt)
					if err != nil {
						t.Fatalf("%s: %v", ds.Name, err)
					}
					if every == 1 && (count.Work.Whole != 0 || got.Work.Whole != 0) {
						t.Fatalf("%s %s every 1: the counting run took %d subtrees whole, the rendering run %d",
							ds.Name, ord.name, count.Work.Whole, got.Work.Whole)
					}
					if !sameWork(got.Work, count.Work) {
						t.Fatalf("%s %s every %d: rendering work %+v, counting work %+v",
							ds.Name, ord.name, every, got.Work, count.Work)
					}
					if count.Counters != got.Counters || count.Steps != got.Steps || count.Stop != got.Stop {
						t.Fatalf("%s %s every %d under %+v: counting %+v in %d steps, stopped for %v; rendering %+v in %d, for %v",
							ds.Name, ord.name, every, lim, count.Counters, count.Steps, count.Stop, got.Counters, got.Steps, got.Stop)
					}
					if cest.Leaves() != est.Leaves() || cest.Fraction() != est.Fraction() {
						t.Fatalf("%s %s every %d under %+v: counting closed %d leaves of mass %.17f, rendering %d of %.17f",
							ds.Name, ord.name, every, lim, cest.Leaves(), cest.Fraction(), est.Leaves(), est.Fraction())
					}
					stops[count.Stop]++
				}
			}
		}
	}
	if sum := fmt.Sprintf("%x", digest.Sum(nil)); sum != bookedRunsDigest {
		t.Errorf("the counting runs' counters, Steps and stop reasons at CheckEvery 1 hash to %s, the inserting engine's to %s", sum, bookedRunsDigest)
	}
	if sum := fmt.Sprintf("%x", wholeDigest.Sum(nil)); sum != wholeRunsDigest {
		t.Errorf("the counting runs' counters, Steps and stop reasons at CheckEvery 64 and 1024 hash to %s, the inserting engine's to %s", sum, wholeRunsDigest)
	}
	if runs != 3*2*120*len(orders) || stops[StopTreeLimit] < 300 || stops[StopStateLimit] < 300 || booked < 30_000 || whole < 10_000 {
		t.Fatalf("%d runs compared, stopped %v, %d insertions booked, %d subtrees taken whole: not enough to mean anything",
			runs, stops, booked, whole)
	}
	t.Logf("%d runs compared, stopped %v, %d insertions booked, %d subtrees taken whole", runs, stops, booked, whole)
}

// TestFrameSize: a frame is a stack slot the step loop reuses, one per taxon
// missing; the overlay keeps what a booked insertion needs beside the stack,
// so a frame stays at 88 bytes.
func TestFrameSize(t *testing.T) {
	if n := unsafe.Sizeof(Frame{}); n > 88 {
		t.Fatalf("a Frame is %d bytes, more than 88", n)
	}
}

// TestPushedBranchesAreFresh: a counting engine reuses a stack slot's real
// branches while the Terrace's real state has not changed since they were
// listed (Engine.lists, against the count of changes Engine.real). On corpus
// stands under the three dynamic heuristics, every frame a counting run pushes
// must list what a fresh listing of its state gives: the Terrace's branches,
// then the overlay's. Each run is cut, and its stack resumed on an engine of
// a fresh Terrace, as a stolen task is: the resumed stack's insertions are
// made for real, so backing out of them removes taxa for real between
// bookings. A real insertion, removal or Reset the count missed shows as a
// stale list.
func TestPushedBranchesAreFresh(t *testing.T) {
	pushed := 0
	// steps runs eng for up to n steps, checking every frame it pushes.
	steps := func(name string, eng *Engine, n int) {
		for step := 0; step < n; step++ {
			ev := eng.Step()
			if ev == EvDone {
				return
			}
			if ev != EvInserted && ev != EvDeadEnd {
				continue
			}
			f := &eng.frames[len(eng.frames)-1]
			want := eng.ov.AppendBookedBranches(eng.T.AppendAllowedBranches(nil, f.Taxon), f.Taxon)
			if !slices.Equal(f.Branches, want) {
				t.Fatalf("%s, step %d: taxon %d pushed with branches %v, its state lists %v",
					name, step, f.Taxon, f.Branches, want)
			}
			pushed++
		}
	}
	for _, regime := range []gen.Regime{gen.RegimeSimulated, gen.RegimeEmpirical} {
		for idx := 0; idx < 60; idx++ {
			ds := gen.Generate(gen.Default(regime), idx)
			initial := ChooseInitialTree(ds.Constraints)
			for _, h := range []OrderHeuristic{OrderMinBranches, OrderMinBranchesTieDegree, OrderMaxBranches} {
				name := fmt.Sprintf("%s %v", ds.Name, h)
				var engs [2]*Engine
				for i := range engs {
					tr, err := terrace.New(ds.Constraints, initial)
					if err != nil {
						t.Fatalf("%s: %v", ds.Name, err)
					}
					engs[i] = NewEngine(tr)
					engs[i].Heuristic = h
				}
				steps(name, engs[0], 50+idx*37%1000)
				if !engs[0].Done() {
					if err := engs[1].Reset(engs[0].SnapshotFrames(nil)); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					engs[1].replayInserted()
					steps(name+" resumed", engs[1], 20_000)
				}
				engs[0].T.Release()
				engs[1].T.Release()
			}
		}
	}
	if pushed < 10_000 {
		t.Fatalf("%d frames pushed: too few to tell", pushed)
	}
	t.Logf("%d pushed frames checked", pushed)
}
