// Package harness orchestrates the paper's evaluation (Sec. IV): corpus
// generation, the dataset filtering pipeline, thread sweeps on the
// virtual-time simulator, and the per-figure/per-table experiments.
//
// Virtual-time calibration: the paper reports Gentrius processing "hundreds
// of thousands of states per second" on a laptop-class i7. We give the
// simulator's virtual CPU a nominal rate of 100,000 state transitions per
// second: one *scaled second* is 100,000 ticks when translating the paper's
// serial-time dataset thresholds (1 s / 10 s / 50 s). Corpora use the
// paper's dataset dimensions (50-300 taxa), so the thresholds partition the
// filtered corpus the way the originals partition the paper's. Only
// relative quantities (speedups, distribution shapes) are compared.
package harness

import (
	"fmt"
	"sort"

	"gentrius/internal/gen"
	"gentrius/internal/parallel"
	"gentrius/internal/search"
	"gentrius/internal/stats"
)

// TicksPerSecond converts simulator ticks to "scaled seconds".
const TicksPerSecond = 100_000

// ThreadCounts are the worker counts of the paper's main evaluation.
var ThreadCounts = []int{2, 4, 8, 12, 16}

// CorpusSpec describes a generated corpus.
type CorpusSpec struct {
	Regime gen.Regime
	Count  int
	Seed   int64
	Config gen.Config // zero: gen.Default(Regime) with Seed applied
}

func (cs CorpusSpec) config() gen.Config {
	cfg := cs.Config
	if cfg.MaxTaxa == 0 {
		cfg = gen.Default(cs.Regime)
	}
	cfg.Regime = cs.Regime
	if cs.Seed != 0 {
		cfg.Seed = cs.Seed
	}
	return cfg
}

// Datasets generates the corpus.
func (cs CorpusSpec) Datasets() []*gen.Dataset {
	cfg := cs.config()
	out := make([]*gen.Dataset, cs.Count)
	for i := range out {
		out[i] = gen.Generate(cfg, i)
	}
	return out
}

// Run is a fully-swept dataset: simulator results per worker count, with the
// one-worker run as the serial baseline.
type Run struct {
	DS      *gen.Dataset
	Serial  *parallel.SimResult
	By      map[int]*parallel.SimResult
	Workers []int
	// Snapshots holds the scheduler-metric snapshot of each swept run,
	// keyed by worker count — the observability row attached to every
	// experiment data point.
	Snapshots map[int]RunSnapshot
}

// RunSnapshot is the per-run scheduler-metric snapshot: the observable
// work-stealing quantities of one simulated run.
type RunSnapshot struct {
	TasksStolen int64
	Flushes     int64
	Efficiency  float64 // busy fraction of the pool over the makespan
}

func snapshotOf(r *parallel.SimResult) RunSnapshot {
	return RunSnapshot{
		TasksStolen: r.TasksStolen,
		Flushes:     r.Flushes,
		Efficiency:  r.Efficiency(),
	}
}

// SerialSeconds returns the serial execution time in scaled seconds.
func (r *Run) SerialSeconds() float64 {
	return float64(r.Serial.Ticks) / TicksPerSecond
}

// Speedup returns the conventional speedup at w workers.
func (r *Run) Speedup(w int) float64 {
	return stats.Speedup(float64(r.Serial.Ticks), float64(r.By[w].Ticks))
}

// AdaptedSpeedup returns the paper's ASP_N metric at w workers.
func (r *Run) AdaptedSpeedup(w int) float64 {
	return stats.AdaptedSpeedup(r.Serial.StandTrees, r.By[w].StandTrees,
		float64(r.Serial.Ticks), float64(r.By[w].Ticks))
}

// simulate runs ds on the virtual-time host with the given number of workers
// from the paper's initial tree, under lim's tree and state rules and vt.
func simulate(ds *gen.Dataset, workers int, lim search.Limits, vt parallel.VirtualTime) (*parallel.SimResult, error) {
	return parallel.Simulate(ds.Constraints, search.Options{Threads: workers, InitialTree: -1, Limits: lim}, vt)
}

// Sweep runs the simulator at 1 worker plus each listed worker count, under
// the tree and state rules of lim and vt's tick bound.
func Sweep(ds *gen.Dataset, workers []int, lim search.Limits, vt parallel.VirtualTime) (*Run, error) {
	r := &Run{DS: ds, By: map[int]*parallel.SimResult{}, Workers: workers,
		Snapshots: map[int]RunSnapshot{}}
	serial, err := simulate(ds, 1, lim, vt)
	if err != nil {
		return nil, fmt.Errorf("%s serial: %w", ds.Name, err)
	}
	r.Serial = serial
	r.By[1] = serial
	r.Snapshots[1] = snapshotOf(serial)
	for _, w := range workers {
		if w == 1 {
			continue
		}
		res, err := simulate(ds, w, lim, vt)
		if err != nil {
			return nil, fmt.Errorf("%s workers=%d: %w", ds.Name, w, err)
		}
		r.By[w] = res
		r.Snapshots[w] = snapshotOf(res)
	}
	return r, nil
}

// StudySpec configures a speedup study (Figures 6 and 7).
type StudySpec struct {
	Corpus CorpusSpec
	// Limits and Clock.MaxTicks bound every run: rules 1 and 2, and rule 3
	// on the virtual clock. The paper sets rules 1 and 2 to 10^9 and a 5 h
	// time budget for its main study; scaled defaults are used when zero (no
	// dataset that completes should hit them).
	Limits search.Limits
	Clock  parallel.VirtualTime
	// MinSerialSeconds drops "small" datasets (paper: 1 s).
	MinSerialSeconds float64
	// Workers to sweep (default ThreadCounts).
	Workers []int
}

// Study is the outcome of the filtering pipeline plus sweeps.
type Study struct {
	Spec      StudySpec
	Runs      []*Run // datasets that passed the filter
	Generated int
	Complete  int // fully enumerated at the probe stage
}

// Normalize fills the spec's defaults. RunStudy applies it automatically;
// callers that reuse spec.Limits and spec.Clock for their own follow-up runs (as Table II
// does for the 32- and 48-worker sweeps) must call it first so every run is
// bounded identically.
func (spec *StudySpec) Normalize() {
	if len(spec.Workers) == 0 {
		spec.Workers = ThreadCounts
	}
	if spec.Limits.MaxTrees == 0 {
		spec.Limits.MaxTrees = 2_000_000
	}
	if spec.Limits.MaxStates == 0 {
		spec.Limits.MaxStates = 2_000_000
	}
	if spec.Clock.MaxTicks == 0 {
		spec.Clock.MaxTicks = 12_000_000 // 120 scaled s: above the 50 s panel
	}
}

// RunStudy applies the paper's pipeline: probe each dataset at the largest
// worker count, keep those whose stand is fully enumerated (no stopping rule
// fired), sweep the survivors across all worker counts, and drop datasets
// whose serial run is too small.
func RunStudy(spec StudySpec) (*Study, error) {
	spec.Normalize()
	st := &Study{Spec: spec}
	maxW := spec.Workers[len(spec.Workers)-1]
	for _, ds := range spec.Corpus.Datasets() {
		st.Generated++
		probe, err := simulate(ds, maxW, spec.Limits, spec.Clock)
		if err != nil {
			return nil, fmt.Errorf("%s probe: %w", ds.Name, err)
		}
		if probe.Stop != search.StopExhausted {
			continue // a stopping rule fired: excluded, as in the paper
		}
		st.Complete++
		run, err := Sweep(ds, spec.Workers, spec.Limits, spec.Clock)
		if err != nil {
			return nil, err
		}
		if run.SerialSeconds() < spec.MinSerialSeconds {
			continue // "small" dataset
		}
		st.Runs = append(st.Runs, run)
	}
	return st, nil
}

// SpeedupDistributions returns one distribution per worker count, restricted
// to runs with serial time above minSeconds — the panels of Figures 6/7.
func (st *Study) SpeedupDistributions(minSeconds float64) []stats.Distribution {
	var out []stats.Distribution
	for _, w := range st.Spec.Workers {
		d := stats.Distribution{Label: fmt.Sprintf("%2d thr", w)}
		for _, r := range st.Runs {
			if r.SerialSeconds() >= minSeconds {
				d.Values = append(d.Values, r.Speedup(w))
			}
		}
		out = append(out, d)
	}
	return out
}

// CountAbove returns how many runs have serial time above minSeconds.
func (st *Study) CountAbove(minSeconds float64) int {
	n := 0
	for _, r := range st.Runs {
		if r.SerialSeconds() >= minSeconds {
			n++
		}
	}
	return n
}

// LargestRuns returns the k runs with the longest serial times.
func (st *Study) LargestRuns(k int) []*Run {
	rs := append([]*Run(nil), st.Runs...)
	sort.Slice(rs, func(i, j int) bool { return rs[i].Serial.Ticks > rs[j].Serial.Ticks })
	if len(rs) > k {
		rs = rs[:k]
	}
	return rs
}
