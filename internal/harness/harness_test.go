package harness

import (
	"strings"
	"testing"

	"gentrius/internal/gen"
	"gentrius/internal/parallel"
	"gentrius/internal/search"
)

func smallSpec(regime gen.Regime, count int) CorpusSpec {
	cfg := gen.Default(regime)
	cfg.MinTaxa, cfg.MaxTaxa = 16, 30
	return CorpusSpec{Regime: regime, Count: count, Seed: 11, Config: cfg}
}

func TestCorpusDatasets(t *testing.T) {
	spec := smallSpec(gen.RegimeSimulated, 5)
	ds := spec.Datasets()
	if len(ds) != 5 {
		t.Fatalf("got %d datasets", len(ds))
	}
	again := spec.Datasets()
	for i := range ds {
		if ds[i].Truth.Newick() != again[i].Truth.Newick() {
			t.Fatal("corpus not deterministic")
		}
	}
}

func TestSweepAndSpeedups(t *testing.T) {
	spec := smallSpec(gen.RegimeSimulated, 30)
	var run *Run
	for _, ds := range spec.Datasets() {
		r, err := Sweep(ds, []int{2, 4}, search.Limits{MaxTrees: 100_000, MaxStates: 100_000},
			parallel.VirtualTime{MaxTicks: 1_000_000})
		if err != nil {
			t.Fatal(err)
		}
		if r.Serial.Ticks > 3000 {
			run = r
			break
		}
	}
	if run == nil {
		t.Skip("no sizable dataset in tiny corpus")
	}
	if sp := run.Speedup(2); sp <= 1 {
		t.Fatalf("2-worker speedup %.2f <= 1", sp)
	}
	if run.SerialSeconds() <= 0 {
		t.Fatal("serial seconds not positive")
	}
}

func TestRunStudyPipeline(t *testing.T) {
	st, err := RunStudy(StudySpec{
		Corpus:           smallSpec(gen.RegimeSimulated, 25),
		MinSerialSeconds: 0.01,
		Workers:          []int{2, 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Generated != 25 {
		t.Fatalf("generated %d", st.Generated)
	}
	if st.Complete == 0 {
		t.Fatal("no dataset completed")
	}
	dists := st.SpeedupDistributions(0)
	if len(dists) != 2 {
		t.Fatalf("got %d distributions", len(dists))
	}
	if st.CountAbove(0) < st.CountAbove(1e9) {
		t.Fatal("CountAbove not monotone")
	}
	if got := len(st.LargestRuns(1)); got > 1 {
		t.Fatalf("LargestRuns(1) returned %d", got)
	}
}

func TestVerifyParity(t *testing.T) {
	// Both generation regimes: the incremental-accounting engine must agree
	// with the parallel pool and the simulator on counters and exact stands.
	for _, regime := range []gen.Regime{gen.RegimeSimulated, gen.RegimeEmpirical} {
		report, err := VerifyParity(smallSpec(regime, 12), 4, 3)
		if err != nil {
			t.Fatalf("%v: %v", regime, err)
		}
		if !strings.Contains(report, "verified") {
			t.Fatalf("%v report: %s", regime, report)
		}
	}
}

func TestHeuristicsAblation(t *testing.T) {
	report, err := HeuristicsAblation(smallSpec(gen.RegimeSimulated, 0), 15)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(report, "both heuristics") || !strings.Contains(report, "random taxon order") {
		t.Fatalf("report missing rows:\n%s", report)
	}
}

func TestDesignAblationsAndOrderHeuristics(t *testing.T) {
	spec := smallSpec(gen.RegimeSimulated, 40)
	out, err := DesignAblations(spec, 40, 1, 2_000)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Task-queue capacity", "depth restriction", "split granularity", "cap=8*"} {
		if !strings.Contains(out, want) {
			t.Fatalf("ablation report missing %q:\n%s", want, out)
		}
	}
	oh, err := OrderHeuristics(spec, 40, 1, 2_000)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(oh, "min-branches") || !strings.Contains(oh, "max-branches") {
		t.Fatalf("order-heuristics report incomplete:\n%s", oh)
	}
}

func TestFigureAndTablePipelinesSmoke(t *testing.T) {
	// Exercise every experiment pipeline end to end on a tiny corpus; the
	// assertions are structural (the real numbers live in EXPERIMENTS.md).
	spec := StudySpec{
		Corpus:           smallSpec(gen.RegimeSimulated, 30),
		MinSerialSeconds: 0,
		Workers:          []int{2, 4},
		Limits:           search.Limits{MaxTrees: 100_000, MaxStates: 100_000},
		Clock:            parallel.VirtualTime{MaxTicks: 1_000_000},
	}
	out, st, err := SpeedupFigure("smoke", spec)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "corpus:") || st.Generated != 30 {
		t.Fatalf("figure output wrong:\n%s", out)
	}
	if tbl, err := Table1AdaptedSpeedups(spec, 2); err != nil {
		t.Fatal(err)
	} else if !strings.Contains(tbl, "Table I") {
		t.Fatalf("table1 output: %s", tbl)
	}
	if tbl, err := Table2ManyThreads(spec); err != nil {
		t.Fatal(err)
	} else if !strings.Contains(tbl, "Table II") {
		t.Fatalf("table2 output: %s", tbl)
	}
	if fig, err := Fig8StoppingRules(StudySpec{
		Corpus:  spec.Corpus,
		Workers: []int{2, 4},
	}, 5); err != nil {
		t.Fatal(err)
	} else if !strings.Contains(fig, "Figure 8") {
		t.Fatalf("fig8 output: %s", fig)
	}
	if s, err := PlateauScan(spec.Corpus, 30, 3.0); err != nil {
		t.Fatal(err)
	} else if !strings.Contains(s, "Figure 5a") {
		t.Fatalf("plateau output: %s", s)
	}
	if s, err := SuperLinearScan(spec.Corpus, 30, 5_000, 50_000); err != nil {
		t.Fatal(err)
	} else if !strings.Contains(s, "Figure 5b") {
		t.Fatalf("superlinear output: %s", s)
	}
	if s, err := BatchingAblation(spec.Corpus, 30, 16); err != nil {
		t.Fatal(err)
	} else if !strings.Contains(s, "batching") {
		t.Fatalf("batching output: %s", s)
	}
}
