package parallel

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"strings"
	"testing"

	"gentrius/internal/obs"
	"gentrius/internal/search"
)

// TestCounterConservation: across seeded instances and thread counts, the
// per-worker counter breakdown plus the coordinator's prefix contribution
// must equal the run totals exactly, and the traced steal events must
// match Result.TasksStolen. Run under -race in CI.
func TestCounterConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(777))
	nontrivial := 0
	for scen := 0; scen < 12; scen++ {
		cons := randomScenario(rng, 10+rng.Intn(5), 2+rng.Intn(2), 4, 0.5)
		for _, threads := range []int{1, 2, 4, 8} {
			var buf bytes.Buffer
			sink := &obs.Sink{
				Metrics: obs.NewSchedMetrics(obs.NewRegistry()),
				Trace:   obs.NewRecorder(&buf, nil),
			}
			res, err := Run(cons, Options{Threads: threads, InitialTree: -1, Obs: sink})
			if err != nil {
				t.Fatalf("scen %d threads %d: %v", scen, threads, err)
			}
			var sum search.Counters
			sum.Add(res.Prefix)
			for _, wc := range res.PerWorker {
				sum.Add(wc)
			}
			if sum != res.Counters {
				t.Fatalf("scen %d threads %d: prefix+sum(PerWorker) = %+v, total %+v",
					scen, threads, sum, res.Counters)
			}
			if err := sink.Trace.Close(); err != nil {
				t.Fatal(err)
			}
			if got := sink.Trace.CountOf(obs.EvSteal); got != res.TasksStolen {
				t.Fatalf("scen %d threads %d: %d traced steals, Result.TasksStolen %d",
					scen, threads, got, res.TasksStolen)
			}
			if got := countTraceLines(t, buf.Bytes(), obs.EvSteal); got != res.TasksStolen {
				t.Fatalf("scen %d threads %d: %d steal lines in JSONL, want %d",
					scen, threads, got, res.TasksStolen)
			}
			// Metric view must agree with the result totals.
			m := sink.Metrics
			if m.Trees.Value() != res.StandTrees ||
				m.States.Value() != res.IntermediateStates ||
				m.DeadEnds.Value() != res.DeadEnds {
				t.Fatalf("scen %d threads %d: metrics (%d,%d,%d) != result (%d,%d,%d)",
					scen, threads, m.Trees.Value(), m.States.Value(), m.DeadEnds.Value(),
					res.StandTrees, res.IntermediateStates, res.DeadEnds)
			}
			if m.TasksStolen.Value() != res.TasksStolen {
				t.Fatalf("metric stolen %d != result %d", m.TasksStolen.Value(), res.TasksStolen)
			}
			// Per-worker labelled counters reproduce the breakdown, and their
			// steals add up to the pool's.
			var stolen int64
			for wid, wc := range res.PerWorker {
				wm := m.Worker(wid)
				got := search.Counters{StandTrees: wm.Trees.Value(),
					IntermediateStates: wm.States.Value(), DeadEnds: wm.DeadEnds.Value()}
				if got != wc {
					t.Fatalf("scen %d threads %d: worker %d metrics %+v != breakdown %+v",
						scen, threads, wid, got, wc)
				}
				stolen += wm.Stolen.Value()
			}
			if stolen != m.TasksStolen.Value() {
				t.Fatalf("scen %d threads %d: per-worker steals add up to %d, gentrius_tasks_stolen_total %d",
					scen, threads, stolen, m.TasksStolen.Value())
			}
			if res.TasksStolen > 0 {
				nontrivial++
			}
		}
	}
	if nontrivial == 0 {
		t.Fatal("no run exercised work stealing")
	}
}

// countTraceLines parses the JSONL trace and counts events of one type,
// validating every line decodes.
func countTraceLines(t *testing.T, raw []byte, ev string) int64 {
	t.Helper()
	n := int64(0)
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		if line == "" {
			continue
		}
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("trace line not JSON: %v\n%s", err, line)
		}
		if rec["ev"] == ev {
			n++
		}
	}
	return n
}

// TestObsDoesNotChangeResults: attaching a sink must not perturb counters,
// stop reasons or stand contents.
func TestObsDoesNotChangeResults(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	cons := randomScenario(rng, 12, 2, 4, 0.5)
	plain, err := Run(cons, Options{Threads: 4, InitialTree: -1, CollectTrees: true})
	if err != nil {
		t.Fatal(err)
	}
	sink := &obs.Sink{Metrics: obs.NewSchedMetrics(obs.NewRegistry()),
		Trace: obs.NewRecorder(&bytes.Buffer{}, nil)}
	traced, err := Run(cons, Options{Threads: 4, InitialTree: -1, CollectTrees: true, Obs: sink})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Counters != traced.Counters || plain.Stop != traced.Stop {
		t.Fatalf("observability changed results: %+v vs %+v", plain.Counters, traced.Counters)
	}
	ps, ts := sortedCopy(plain.Trees), sortedCopy(traced.Trees)
	for i := range ps {
		if ps[i] != ts[i] {
			t.Fatal("observability changed the stand")
		}
	}
}

// TestQueueStealZeroesHeadSlot pins the memory-leak fix: after a steal the
// backing array's vacated slot must not retain the task (its buffers return
// to the pool once the stealing worker finishes).
func TestQueueStealZeroesHeadSlot(t *testing.T) {
	p := testPool(4, 2)
	if !offer(p) {
		t.Fatal("submit rejected")
	}
	backing := p.tasks[:1] // aliases the head slot
	got := p.steal(0)
	if got == nil || got.root().Taxon != 3 {
		t.Fatalf("steal = %+v", got)
	}
	if backing[0] != nil {
		t.Fatalf("head slot retains task after steal: %+v", backing[0])
	}
}

// BenchmarkPoolNilObs measures the pool with observability off — the
// nil-recorder/nil-metric fast path the acceptance criteria require to
// show no measurable regression.
func BenchmarkPoolNilObs(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	cons := randomScenario(rng, 13, 2, 4, 0.5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cons, Options{Threads: 4, InitialTree: -1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPoolWithObs is the same workload with metrics and tracing on,
// for comparison against BenchmarkPoolNilObs.
func BenchmarkPoolWithObs(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	cons := randomScenario(rng, 13, 2, 4, 0.5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink := &obs.Sink{Metrics: obs.NewSchedMetrics(obs.NewRegistry()),
			Trace: obs.NewRecorder(&bytes.Buffer{}, nil)}
		if _, err := Run(cons, Options{Threads: 4, InitialTree: -1, Obs: sink}); err != nil {
			b.Fatal(err)
		}
	}
}
