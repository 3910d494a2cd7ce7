package parallel

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"gentrius/internal/obs"
	"gentrius/internal/search"
	"gentrius/internal/tree"
)

// bigScenario returns a scenario whose serial run has at least minTrees.
func bigScenario(t *testing.T, rng *rand.Rand, n int, minTrees int64) []*tree.Tree {
	t.Helper()
	for i := 0; i < 200; i++ {
		cons := randomScenario(rng, n, 2, 4, 0.45)
		res, err := search.Run(cons, search.Options{InitialTree: -1})
		if err != nil {
			t.Fatal(err)
		}
		if res.StandTrees >= minTrees && res.Stop == search.StopExhausted {
			return cons
		}
	}
	t.Fatal("no big scenario found")
	return nil
}

func TestSimSerialMatchesRunner(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for scen := 0; scen < 10; scen++ {
		cons := randomScenario(rng, 10+rng.Intn(5), 2+rng.Intn(2), 4, 0.55)
		serial, err := search.Run(cons, search.Options{InitialTree: -1, CollectTrees: true})
		if err != nil {
			t.Fatal(err)
		}
		sim, err := Simulate(cons, search.Options{Threads: 1, InitialTree: -1, CollectTrees: true}, VirtualTime{})
		if err != nil {
			t.Fatal(err)
		}
		if sim.Counters != serial.Counters {
			t.Fatalf("scen %d: sim counters %+v, serial %+v", scen, sim.Counters, serial.Counters)
		}
		// A worker that renders nothing looks ahead of the same branches of the
		// second-to-last taxon as this one, and is charged the same ticks.
		count, err := Simulate(cons, search.Options{Threads: 1, InitialTree: -1}, VirtualTime{})
		if err != nil {
			t.Fatal(err)
		}
		if count.Counters != sim.Counters || count.Ticks != sim.Ticks {
			t.Fatalf("scen %d: counting sim %+v in %d ticks, collecting %+v in %d", scen, count.Counters, count.Ticks, sim.Counters, sim.Ticks)
		}
		a, b := append([]string(nil), sim.Trees...), append([]string(nil), serial.Trees...)
		sort.Strings(a)
		sort.Strings(b)
		if len(a) != len(b) {
			t.Fatalf("tree sets sizes differ")
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("tree sets differ")
			}
		}
	}
}

func TestSimMultiWorkerCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	cons := bigScenario(t, rng, 13, 100)
	ref, err := Simulate(cons, search.Options{Threads: 1, InitialTree: -1}, VirtualTime{})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 3, 4, 8, 16} {
		sim, err := Simulate(cons, search.Options{Threads: w, InitialTree: -1}, VirtualTime{})
		if err != nil {
			t.Fatal(err)
		}
		if sim.Counters != ref.Counters {
			t.Fatalf("workers %d: counters %+v, want %+v", w, sim.Counters, ref.Counters)
		}
		if sim.Ticks > ref.Ticks+16 {
			t.Fatalf("workers %d: makespan %d exceeds serial %d", w, sim.Ticks, ref.Ticks)
		}
	}
}

func TestSimSpeedup(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	cons := bigScenario(t, rng, 16, 2000)
	t1, err := Simulate(cons, search.Options{Threads: 1, InitialTree: -1}, VirtualTime{})
	if err != nil {
		t.Fatal(err)
	}
	t4, err := Simulate(cons, search.Options{Threads: 4, InitialTree: -1}, VirtualTime{})
	if err != nil {
		t.Fatal(err)
	}
	sp := float64(t1.Ticks) / float64(t4.Ticks)
	if sp < 1.5 {
		t.Fatalf("4-worker speedup only %.2fx (ticks %d -> %d, stolen %d)",
			sp, t1.Ticks, t4.Ticks, t4.TasksStolen)
	}
	if eff := t4.Efficiency(); eff <= 0 || eff > 1 {
		t.Fatalf("efficiency out of range: %v", eff)
	}
}

func TestSimDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	cons := bigScenario(t, rng, 12, 50)
	a, err := Simulate(cons, search.Options{Threads: 5, InitialTree: -1}, VirtualTime{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(cons, search.Options{Threads: 5, InitialTree: -1}, VirtualTime{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Ticks != b.Ticks || a.Counters != b.Counters || a.TasksStolen != b.TasksStolen || a.Flushes != b.Flushes {
		t.Fatalf("nondeterministic simulation: %+v vs %+v", a, b)
	}
}

func TestSimTickLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	cons := bigScenario(t, rng, 14, 500)
	sim, err := Simulate(cons, search.Options{Threads: 2, InitialTree: -1}, VirtualTime{MaxTicks: 50})
	if err != nil {
		t.Fatal(err)
	}
	if sim.Stop != search.StopTimeLimit {
		t.Fatalf("stop = %v, want time-limit", sim.Stop)
	}
	if sim.Ticks < 50 || sim.Ticks > 80 {
		t.Fatalf("ticks = %d, want ~50", sim.Ticks)
	}
}

func TestSimTreeLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	cons := bigScenario(t, rng, 14, 500)
	sim, err := Simulate(cons, search.Options{
		Threads: 2, InitialTree: -1, Limits: search.Limits{MaxTrees: 100},
		Policy: search.Policy{TreeBatch: 16, StateBatch: 64, DeadEndBatch: 16},
	}, VirtualTime{})
	if err != nil {
		t.Fatal(err)
	}
	if sim.Stop != search.StopTreeLimit {
		t.Fatalf("stop = %v, want tree-limit", sim.Stop)
	}
	if sim.StandTrees < 100 || sim.StandTrees > 100+2*16+64 {
		t.Fatalf("trees = %d, want slight overshoot of 100", sim.StandTrees)
	}
}

func TestSimFlushCostAblation(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	cons := bigScenario(t, rng, 14, 1000)
	batched, err := Simulate(cons, search.Options{Threads: 4, InitialTree: -1}, VirtualTime{FlushCost: 50})
	if err != nil {
		t.Fatal(err)
	}
	unbatched, err := Simulate(cons, search.Options{
		Threads: 4, InitialTree: -1, Policy: search.Policy{TreeBatch: 1, StateBatch: 1, DeadEndBatch: 1},
	}, VirtualTime{FlushCost: 50})
	if err != nil {
		t.Fatal(err)
	}
	if unbatched.Ticks <= batched.Ticks {
		t.Fatalf("unbatched (%d ticks) should be slower than batched (%d ticks)",
			unbatched.Ticks, batched.Ticks)
	}
	if unbatched.Flushes <= batched.Flushes {
		t.Fatalf("unbatched should flush more (%d vs %d)", unbatched.Flushes, batched.Flushes)
	}
}

func TestSimEmptyAndSingletonStands(t *testing.T) {
	taxa := tree.MustTaxa([]string{"A", "B", "C", "D", "E"})
	full := tree.MustParse("((A,B),(C,(D,E)));", taxa)
	one, err := Simulate([]*tree.Tree{full}, search.Options{
		Threads: 4, InitialTree: 0, CollectTrees: true,
	}, VirtualTime{})
	if err != nil {
		t.Fatal(err)
	}
	if one.StandTrees != 1 || len(one.Trees) != 1 {
		t.Fatalf("singleton stand: %d trees", one.StandTrees)
	}
	c1 := tree.MustParse("((A,B),(C,D));", taxa)
	c2 := tree.MustParse("((A,C),(B,(D,E)));", taxa)
	zero, err := Simulate([]*tree.Tree{c1, c2}, search.Options{Threads: 4, InitialTree: -1}, VirtualTime{})
	if err != nil {
		t.Fatal(err)
	}
	if zero.StandTrees != 0 {
		t.Fatalf("incompatible stand: %d trees", zero.StandTrees)
	}
}

func TestTimelineTrace(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	cons := bigScenario(t, rng, 13, 100)
	res, err := Simulate(cons, search.Options{Threads: 3, InitialTree: -1}, VirtualTime{TraceEvery: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Timeline) != 3 {
		t.Fatalf("timeline rows = %d, want 3", len(res.Timeline))
	}
	rendered := res.RenderTimeline()
	if !strings.Contains(rendered, "w00 ") || !strings.Contains(rendered, "W") {
		t.Fatalf("timeline rendering wrong:\n%s", rendered)
	}
	// Without tracing, no timeline.
	res2, err := Simulate(cons, search.Options{Threads: 2, InitialTree: -1}, VirtualTime{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Timeline) != 0 || res2.RenderTimeline() != "" {
		t.Fatal("timeline should be absent when disabled")
	}
}

// TestHeuristicOptionPreservesCounts: every insertion-order heuristic counts
// the same stand, and the simulator runs the one it is given: its run is as
// long, in the paper machine's transitions, as search.Run's under it.
func TestHeuristicOptionPreservesCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	cons := bigScenario(t, rng, 12, 50)
	var base *SimResult
	moved := false
	for _, h := range []search.OrderHeuristic{search.OrderMinBranches, search.OrderMinBranchesTieDegree, search.OrderMaxBranches} {
		opt := search.Options{Threads: 4, InitialTree: -1, Heuristic: h}
		sim, err := Simulate(cons, opt, VirtualTime{})
		if err != nil {
			t.Fatal(err)
		}
		opt.Threads = 1
		ref, err := search.Run(cons, opt)
		if err != nil {
			t.Fatal(err)
		}
		if sim.Counters != ref.Counters || sim.Steps != ref.Steps {
			t.Fatalf("%v: simulator %+v in %d steps, search.Run %+v in %d", h, sim.Counters, sim.Steps, ref.Counters, ref.Steps)
		}
		if base == nil {
			base = sim
		} else if sim.StandTrees != base.StandTrees {
			t.Fatalf("%v changed the stand size: %d vs %d", h, sim.StandTrees, base.StandTrees)
		}
		moved = moved || sim.Steps != base.Steps
	}
	if !moved {
		t.Fatal("every heuristic took the same steps: the runs cannot tell them apart")
	}
}

func TestSplitPolicies(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	cons := bigScenario(t, rng, 13, 200)
	ref, err := Simulate(cons, search.Options{Threads: 1, InitialTree: -1}, VirtualTime{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []search.SplitPolicy{search.SplitHalf, search.SplitOne, search.SplitAllButOne} {
		res, err := Simulate(cons, search.Options{
			Threads: 4, InitialTree: -1, Policy: search.Policy{Split: p},
		}, VirtualTime{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Counters != ref.Counters {
			t.Fatalf("policy %v changed counters", p)
		}
	}
	if search.SplitHalf.String() != "half" || search.SplitOne.String() != "one" || search.SplitAllButOne.String() != "all-but-one" {
		t.Fatal("policy names wrong")
	}
}

// TestTraceByteIdentical: virtual-time traces of repeated runs on the same
// input must be byte-identical (single-threaded scheduler, tick stamps),
// and the steal events must match Result.TasksStolen.
func TestTraceByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	cons := bigScenario(t, rng, 13, 100)
	runOnce := func() (string, *SimResult) {
		var b bytes.Buffer
		rec := obs.NewRecorder(&b, nil)
		res, err := Simulate(cons, search.Options{
			Threads: 6, InitialTree: -1, Obs: &obs.Sink{Trace: rec},
		}, VirtualTime{})
		if err != nil {
			t.Fatal(err)
		}
		if err := rec.Flush(); err != nil {
			t.Fatal(err)
		}
		return b.String(), res
	}
	ta, ra := runOnce()
	tb, rb := runOnce()
	if ta != tb {
		t.Fatalf("traces differ across identical runs:\n--- a (%d bytes)\n--- b (%d bytes)", len(ta), len(tb))
	}
	if ta == "" {
		t.Fatal("trace is empty")
	}
	if ra.Counters != rb.Counters || ra.TasksStolen != rb.TasksStolen {
		t.Fatalf("results differ: %+v vs %+v", ra.Counters, rb.Counters)
	}
	steals := int64(strings.Count(ta, `"ev":"`+obs.EvSteal+`"`))
	if steals != ra.TasksStolen {
		t.Fatalf("%d steal events traced, TasksStolen = %d", steals, ra.TasksStolen)
	}
	flushes := int64(strings.Count(ta, `"ev":"`+obs.EvFlush+`"`))
	if flushes != ra.Flushes {
		t.Fatalf("%d flush events traced, Flushes = %d", flushes, ra.Flushes)
	}
	if !strings.Contains(ta, `"ev":"`+obs.EvWorkerStart+`"`) {
		t.Fatal("trace missing worker-start events")
	}
	// Task-lineage spans: every begin is matched by exactly one end, and
	// there are at least as many spans as executed tasks (initial shares +
	// steals).
	begins := int64(strings.Count(ta, `"ev":"`+obs.EvTaskStart+`"`))
	ends := int64(strings.Count(ta, `"ev":"`+obs.EvTaskEnd+`"`))
	if begins == 0 || begins != ends {
		t.Fatalf("unbalanced task spans: %d begins, %d ends", begins, ends)
	}
	if begins < ra.TasksStolen {
		t.Fatalf("%d task spans traced, but %d tasks were stolen", begins, ra.TasksStolen)
	}
	// Lineage: submissions and steals carry task ids, submissions carry the
	// submitting task as parent.
	if !strings.Contains(ta, `"parent":`) {
		t.Fatal("trace missing task lineage (no parent fields)")
	}
	// Every line is valid JSON with a virtual timestamp.
	for _, line := range strings.Split(strings.TrimSpace(ta), "\n") {
		var ev map[string]any
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad trace line %q: %v", line, err)
		}
		if _, ok := ev["ts"]; !ok {
			t.Fatalf("trace line missing ts: %q", line)
		}
	}
}

// TestTraceOffIsUntouched: a nil recorder must not change simulation
// results (the disabled path is a branch).
func TestTraceOffIsUntouched(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	cons := bigScenario(t, rng, 12, 50)
	a, err := Simulate(cons, search.Options{Threads: 4, InitialTree: -1}, VirtualTime{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	b, err := Simulate(cons, search.Options{
		Threads: 4, InitialTree: -1, Obs: &obs.Sink{Trace: obs.NewRecorder(&buf, nil)},
	}, VirtualTime{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Ticks != b.Ticks || a.Counters != b.Counters || a.TasksStolen != b.TasksStolen {
		t.Fatalf("tracing changed the simulation: %+v vs %+v", a, b)
	}
}
