package search

import (
	"crypto/sha256"
	"fmt"
	"testing"
	"unsafe"

	"gentrius/internal/gen"
)

// bookedRunsDigest is the SHA-256 of the lines TestBookedRunsStopWhereInsertingRunsDo
// writes, one per counting run: its counters, Steps and stop reason. It was
// taken from the engine that inserted every third-to-last taxon it did not
// look ahead of (commit d5288cc), so a booking engine that moved a counter, a
// step or a stop by one would change it.
const bookedRunsDigest = "f0835e071cd58e6a8ea5070abbe639b3cb060ef92505275142b4a9cb044906f5"

// TestBookedRunsStopWhereInsertingRunsDo is the differential test of booked
// insertions under the stopping rules. On the first 120 stands of both corpus
// regimes, under the three dynamic heuristics and three static orders, with a
// tree limit and a state limit checked after every step (CheckEvery 1), a
// counting run — which books the insertions of the third-to-last taxon where
// the Terrace allows it — stops where, when and why the rendering run does,
// which books none: the same counters, Steps and stop reason, wherever the
// rendering run looked ahead of the same branches (its writer derived every
// base, so both make the same steps). And the counting runs' counters, Steps
// and stop reasons are, all of them, the inserting engine's (bookedRunsDigest).
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
	digest := sha256.New()
	var runs, compared int
	stops := map[StopReason]int{}
	var booked int64
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
				opt := Options{InitialTree: -1, Heuristic: ord.h, DisableDynamicOrder: ord.static,
					ShuffleSeed: ord.shuffle, CheckEvery: 1, Limits: lim}
				count, err := Run(ds.Constraints, opt)
				if err != nil {
					t.Fatalf("%s: %v", ds.Name, err)
				}
				fmt.Fprintf(digest, "%s %s %d %d: %+v %d %v\n", ds.Name, ord.name, lim.MaxTrees, lim.MaxStates,
					count.Counters, count.Steps, count.Stop)
				runs++
				booked += count.Work.Booked
				opt.OnTrees = func([]byte, int) {}
				got, err := Run(ds.Constraints, opt)
				if err != nil {
					t.Fatalf("%s: %v", ds.Name, err)
				}
				if got.Work.Booked != 0 {
					t.Fatalf("%s %s: a rendering run booked %d insertions", ds.Name, ord.name, got.Work.Booked)
				}
				if got.Work.Fallbacks != count.Work.Fallbacks {
					continue // the writer refused a base: the rendering run inserted where the counting run looked ahead
				}
				if count.Counters != got.Counters || count.Steps != got.Steps || count.Stop != got.Stop {
					t.Fatalf("%s %s under %+v: counting %+v in %d steps, stopped for %v; rendering %+v in %d, for %v",
						ds.Name, ord.name, lim, count.Counters, count.Steps, count.Stop, got.Counters, got.Steps, got.Stop)
				}
				compared++
				stops[count.Stop]++
			}
		}
	}
	if sum := fmt.Sprintf("%x", digest.Sum(nil)); sum != bookedRunsDigest {
		t.Errorf("the %d counting runs' counters, Steps and stop reasons hash to %s, the inserting engine's to %s", runs, sum, bookedRunsDigest)
	}
	if compared < runs*9/10 || stops[StopTreeLimit] < 100 || stops[StopStateLimit] < 100 || booked < 10_000 {
		t.Fatalf("%d of %d runs compared, stopped %v, %d insertions booked: not enough to mean anything", compared, runs, stops, booked)
	}
	t.Logf("%d of %d runs compared, stopped %v, %d insertions booked", compared, runs, stops, booked)
}

// TestFrameSize: a frame is a stack slot the step loop reuses, one per taxon
// missing; the overlay keeps what a booked insertion needs beside the stack,
// so a frame stays at 88 bytes.
func TestFrameSize(t *testing.T) {
	if n := unsafe.Sizeof(Frame{}); n > 88 {
		t.Fatalf("a Frame is %d bytes, more than 88", n)
	}
}
