package parallel

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"gentrius/internal/faultinject"
	"gentrius/internal/gen"
	"gentrius/internal/obs"
	"gentrius/internal/search"
)

// TestOneOptionsEveryWidth: search.Options is the one options type of every
// in-process driver, so one value runs through search.Run, and through the
// pool and the simulator at T = 1, 2 and 4, under the dynamic insertion
// order and under a shuffled static one, to one search.Result: the same
// stand, counters, stop, initial tree, prefix, and length in the paper
// machine's transitions. The value's metrics are fed by every run alike:
// after the serial run they read its Result, the prefix's counters
// included, and after the other six they read seven times it.
func TestOneOptionsEveryWidth(t *testing.T) {
	const budget = 20_000
	stride := 1
	if raceEnabled || testing.Short() {
		stride = 4
	}
	orders := []struct {
		name   string
		static bool
		seed   int64
	}{{"dynamic", false, 0}, {"shuffled static", true, 7}}
	stands, prefixed := 0, 0
	for _, regime := range []gen.Regime{gen.RegimeSimulated, gen.RegimeEmpirical} {
		for idx := 0; idx < 24; idx += stride {
			ds := gen.Generate(gen.Default(regime), idx)
			var stand []string
			for _, ord := range orders {
				m := obs.NewSchedMetrics(obs.NewRegistry())
				opt := search.Options{InitialTree: -1, CollectTrees: true, CheckEvery: 64,
					DisableDynamicOrder: ord.static, ShuffleSeed: ord.seed,
					Limits: search.Limits{MaxTrees: 2 * budget, MaxStates: 2 * budget, MaxTime: -1},
					Obs:    &obs.Sink{Metrics: m, Estimate: &obs.Estimator{}}}
				ref, err := search.Run(ds.Constraints, opt)
				if err != nil {
					t.Fatalf("%s %s: %v", ds.Name, ord.name, err)
				}
				if ref.Stop != search.StopExhausted || ref.StandTrees > budget || ref.IntermediateStates > budget {
					continue // too large to run seven times over, or never to hit a limit
				}
				what := fmt.Sprintf("%s, %s order", ds.Name, ord.name)
				if stand == nil {
					stand = ref.Trees
					stands++
				}
				sameStand(t, what+", serial", ref.Trees, stand)
				want := func(k int64) search.Counters {
					return search.Counters{StandTrees: k * ref.StandTrees,
						IntermediateStates: k * ref.IntermediateStates, DeadEnds: k * ref.DeadEnds}
				}
				metrics := func() search.Counters {
					return search.Counters{StandTrees: m.Trees.Value(),
						IntermediateStates: m.States.Value(), DeadEnds: m.DeadEnds.Value()}
				}
				if got := metrics(); got != want(1) {
					t.Fatalf("%s: serial run's metrics %+v, its Result %+v", what, got, ref.Counters)
				}
				if ref.PrefixLen > 0 {
					prefixed++
				}
				for _, threads := range []int{1, 2, 4} {
					opt.Threads = threads
					pool, err := Run(ds.Constraints, opt)
					if err != nil {
						t.Fatalf("%s, pool at T=%d: %v", what, threads, err)
					}
					sim, err := Simulate(ds.Constraints, opt, VirtualTime{})
					if err != nil {
						t.Fatalf("%s, simulator at T=%d: %v", what, threads, err)
					}
					for _, got := range []struct {
						driver string
						res    *search.Result
					}{{"pool", pool}, {"simulator", &sim.Result}} {
						r, what := got.res, fmt.Sprintf("%s, %s at T=%d", what, got.driver, threads)
						if r.Stop != ref.Stop || r.Counters != ref.Counters || r.InitialIndex != ref.InitialIndex ||
							r.PrefixLen != ref.PrefixLen || r.Prefix != ref.Prefix || r.Steps != ref.Steps || r.Work.Units != ref.Work.Units {
							t.Fatalf("%s: %v %+v, initial tree %d, prefix %d %+v, %d steps, %d units; serial %v %+v, %d, %d %+v, %d, %d",
								what, r.Stop, r.Counters, r.InitialIndex, r.PrefixLen, r.Prefix, r.Steps, r.Work.Units,
								ref.Stop, ref.Counters, ref.InitialIndex, ref.PrefixLen, ref.Prefix, ref.Steps, ref.Work.Units)
						}
						sameStand(t, what, r.Trees, stand)
					}
				}
				if got := metrics(); got != want(7) {
					t.Fatalf("%s: metrics %+v after seven runs of %+v", what, got, ref.Counters)
				}
			}
		}
	}
	if stands < 4 || prefixed == 0 {
		t.Fatalf("only %d stands small enough, %d runs with a prefix", stands, prefixed)
	}
	t.Logf("%d stands at both orders, %d runs with a prefix", stands, prefixed)
}

// TestDriversRefuseTheOthersFields: each driver refuses only what it cannot
// have — search.Run a width above one and a Policy, the simulator a wall
// clock's time rule and checkpoints, another goroutine's trigger and a
// recover's fault injection — each field on its own, and a refused run
// still releases its trigger's requesters.
func TestDriversRefuseTheOthersFields(t *testing.T) {
	cons := chainConstraints(3)
	serial := func(opt search.Options) error { _, err := search.Run(cons, opt); return err }
	sim := func(opt search.Options) error { _, err := Simulate(cons, opt, VirtualTime{}); return err }
	for _, c := range []struct {
		what string
		run  func(search.Options) error
		opt  search.Options
	}{
		{"search.Run at two threads", serial, search.Options{Threads: 2}},
		{"search.Run with a Policy", serial, search.Options{Policy: search.Policy{QueueCap: 2}}},
		{"Simulate with a checkpoint Interval and Sink", sim, search.Options{
			Checkpoint: search.CheckpointPolicy{Interval: time.Second, Sink: func(*search.Checkpoint) {}}}},
		{"Simulate with a checkpoint Trigger", sim, search.Options{
			Checkpoint: search.CheckpointPolicy{Trigger: search.NewCheckpointTrigger()}}},
		{"Simulate with a positive MaxTime", sim, search.Options{Limits: search.Limits{MaxTime: time.Hour}}},
		{"Simulate with Fault", sim, search.Options{Fault: faultinject.New(1)}},
	} {
		if err := c.run(c.opt); err == nil {
			t.Fatalf("%s: not refused", c.what)
		}
		trig := search.NewCheckpointTrigger()
		c.opt.Checkpoint.Trigger = trig
		if err := c.run(c.opt); err == nil {
			t.Fatalf("%s, with a trigger: not refused", c.what)
		}
		if _, err := trig.Request(context.Background()); !errors.Is(err, search.ErrRunEnded) {
			t.Fatalf("%s: a request after the refusal got %v, want ErrRunEnded", c.what, err)
		}
	}
}
