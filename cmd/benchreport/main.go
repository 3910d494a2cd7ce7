// Command benchreport runs the tier-1 benchmark workloads (serial engine,
// goroutine pool, terrace micro-benchmarks) through testing.Benchmark and
// emits machine-readable JSON — ns/op, allocs/op, bytes/op and the custom
// metrics the benchmarks report. The committed BENCH_seed.json holds the
// pre-optimisation baseline; re-running with -compare BENCH_seed.json prints
// the trajectory, so performance PRs carry their own evidence.
//
// The dataset selection mirrors bench_test.go exactly (scan the generated
// corpus for the first instance with the required property), so numbers are
// comparable across runs on the same host.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"testing"
	"time"

	"gentrius/internal/gen"
	"gentrius/internal/parallel"
	"gentrius/internal/search"
	"gentrius/internal/terrace"
)

// BenchResult is one benchmark's machine-readable outcome.
type BenchResult struct {
	Name        string             `json:"name"`
	Iterations  int                `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Report is the full benchreport output.
type Report struct {
	GoVersion  string        `json:"go_version"`
	GOOS       string        `json:"goos"`
	GOARCH     string        `json:"goarch"`
	Note       string        `json:"note,omitempty"`
	Benchmarks []BenchResult `json:"benchmarks"`
}

var (
	benchLimits = search.Limits{MaxTrees: 2_000_000, MaxStates: 2_000_000}
	benchClock  = parallel.VirtualTime{MaxTicks: 12_000_000}
)

// findDataset scans the simulated corpus for the first dataset satisfying
// pred, exactly like bench_test.go's helper of the same name.
func findDataset(regime gen.Regime, lim search.Limits, vt parallel.VirtualTime,
	pred func(*gen.Dataset, *parallel.SimResult) bool) (*gen.Dataset, error) {
	cfg := gen.Default(regime)
	for idx := 0; idx < 400; idx++ {
		ds := gen.Generate(cfg, idx)
		res, err := parallel.Simulate(ds.Constraints, search.Options{Threads: 1, InitialTree: -1, Limits: lim}, vt)
		if err != nil {
			return nil, err
		}
		if pred(ds, res) {
			return ds, nil
		}
	}
	return nil, fmt.Errorf("no qualifying dataset in scan range")
}

// buildTerracePath prepares a terrace over ds plus a greedy valid insertion
// path (first admissible branch per taxon), the micro-benchmark substrate.
func buildTerracePath(ds *gen.Dataset) (*terrace.Terrace, []int, [][]int32, error) {
	tr, err := terrace.New(ds.Constraints, 0)
	if err != nil {
		return nil, nil, nil, err
	}
	var taxa []int
	var branches [][]int32
	for _, x := range tr.MissingTaxa() {
		br := tr.AllowedBranches(x)
		if len(br) == 0 {
			break
		}
		taxa = append(taxa, x)
		branches = append(branches, br)
		tr.ExtendTaxon(x, br[0])
	}
	for tr.Depth() > 0 {
		tr.RemoveTaxon()
	}
	if len(taxa) == 0 {
		return nil, nil, nil, fmt.Errorf("no insertable taxa in dataset %s", ds.Name)
	}
	return tr, taxa, branches, nil
}

// reportWork reports a serial run's work metrics (workMetrics).
func reportWork(b *testing.B, res *search.Result) {
	for name, v := range workMetrics(res) {
		b.ReportMetric(v, name)
	}
}

// workMetrics are a serial run's exact work counters — the -compare gates at
// 0 % (exactMetrics), a rendering run's with the Newick writer's walks and
// derived bases — and what the engine did for them.
func workMetrics(res *search.Result) map[string]float64 {
	m := map[string]float64{
		"stand-trees":  float64(res.StandTrees),
		"states":       float64(res.IntermediateStates),
		"dead-ends":    float64(res.DeadEnds),
		"steps":        float64(res.Steps),
		"extend-calls": float64(res.Work.Extends),
		"booked":       float64(res.Work.Booked),
		"materialized": float64(res.Work.Materialized),
		"whole":        float64(res.Work.Whole),
	}
	if w := res.Work; w.LookAheads+w.Fallbacks > 0 {
		// Of the penultimate frames' branches (two taxa missing), the share the
		// Terrace's counts answered and the share that had to be inserted.
		m["lookahead-%"] = 100 * float64(w.LookAheads) / float64(w.LookAheads+w.Fallbacks)
		m["lookahead-fallback-%"] = 100 * float64(w.Fallbacks) / float64(w.LookAheads+w.Fallbacks)
	}
	if e, trees := res.Work.Emit, float64(res.StandTrees); e.Walked > 0 {
		// The writer's walks of a state and the bases it derived instead.
		m["walks"] = float64(e.Walks)
		m["derived"] = float64(e.Derived)
		m["walked-B/tree"] = float64(e.Walked) / trees
		m["copied-B/tree"] = float64(e.Copied) / trees
		m["spliced-%"] = 100 * float64(e.Spliced) / trees
		m["recut-%"] = 100 * float64(e.Recut) / trees
		m["fallback-%"] = 100 * (trees - float64(e.Spliced+e.Recut)) / trees
	}
	return m
}

// exactMetrics are the work counters that depend on the input alone, not on
// the host or the clock: -compare fails on any change of one.
var exactMetrics = []string{"stand-trees", "states", "dead-ends", "steps", "extend-calls", "booked", "materialized", "whole", "walks", "derived", "forced", "prefix-queries"}

// ratioMetrics are the timings of two variants interleaved in one process,
// divided: the host's speed cancels, so -compare fails when one is more than
// maxRatioUp above the baseline's, on any host.
var ratioMetrics = []string{"t2/serial", "emit/stream", "stream/spool", "strings/blocks"}

const maxRatioUp = 0.20

// bytesRows are the rows whose bytes/op depend on the input alone — one
// goroutine building, copying or reading a fixed input, or running the
// serial engine or the pool over fixed stands — so -compare -max-regress
// gates them like allocs/op.
var bytesRows = []string{"TerraceNew", "TerraceRenew", "TerraceReclone", "StaticIndexNew", "ReadTrees", "StartSmallStands", "SerialSmallStands", "PoolSmallStands"}

// run wraps testing.Benchmark, forcing allocation reporting.
func run(name string, f func(b *testing.B)) BenchResult {
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		f(b)
	})
	out := BenchResult{
		Name:        name,
		Iterations:  r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
	if len(r.Extra) > 0 {
		out.Metrics = map[string]float64{}
		for k, v := range r.Extra {
			out.Metrics[k] = v
		}
	}
	return out
}

func main() {
	outPath := flag.String("out", "", "write the JSON report to this file (default stdout)")
	note := flag.String("note", "", "free-form note embedded in the report")
	compare := flag.String("compare", "", "baseline JSON report to diff against (prints a table to stderr; exits non-zero if an exact work counter — stand-trees, states, dead-ends, steps, extend-calls, booked, materialized, whole, walks, derived, forced, prefix-queries — differs from the baseline's, or an in-run ratio — t2/serial, emit/stream, stream/spool, strings/blocks — is more than 20 % above it)")
	maxRegress := flag.Float64("max-regress", 0, "with -compare: exit non-zero if any shared benchmark's ns/op regresses by more than this percentage, or if its allocs/op — or, on "+
		strings.Join(bytesRows, ", ")+", its bytes/op — exceed the baseline's by more than a quarter (host-independent gates; exact for a baseline of 0 to 3 allocs)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the benchmark runs (dataset selection excluded) — the input for PGO via scripts/pgo_profile.sh")
	benchtime := flag.String("benchtime", "", "per-benchmark time budget, e.g. 1s or 1x (default: testing's 1s)")
	testing.Init()
	flag.Parse()

	if *benchtime != "" {
		if err := flag.CommandLine.Lookup("test.benchtime").Value.Set(*benchtime); err != nil {
			fmt.Fprintf(os.Stderr, "benchreport: bad -benchtime: %v\n", err)
			os.Exit(1)
		}
	}

	rep := Report{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Note:      *note,
	}

	fmt.Fprintf(os.Stderr, "benchreport: selecting datasets...\n")
	midSim, err := findDataset(gen.RegimeSimulated, benchLimits, benchClock,
		func(_ *gen.Dataset, r *parallel.SimResult) bool {
			return r.Stop == search.StopExhausted && r.Ticks >= 100_000
		})
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchreport: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchreport: dataset %s\n", midSim.Name)

	// Profile only the benchmark runs: the dataset-selection scan above is a
	// different workload (corpus generation plus bounded enumeration) and
	// would dilute a PGO profile of the serving/search hot paths.
	stopProfile := func() {}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchreport: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "benchreport: %v\n", err)
			os.Exit(1)
		}
		stopProfile = func() {
			pprof.StopCPUProfile()
			f.Close()
		}
	}

	start := time.Now()
	put := func(res BenchResult) {
		fmt.Fprintf(os.Stderr, "benchreport: %-28s %12.1f ns/op %8d allocs/op  (%.1fs)\n",
			res.Name, res.NsPerOp, res.AllocsPerOp, time.Since(start).Seconds())
		rep.Benchmarks = append(rep.Benchmarks, res)
		start = time.Now()
	}
	add := func(name string, f func(b *testing.B)) { put(run(name, f)) }

	// BenchmarkSerialEngine: full serial enumeration under the dynamic
	// heuristic — the tier-1 state-transition throughput figure, in the
	// paper machine's transitions (a final frame of m counts 2m, though the
	// engine takes it in one step), next to the exact work counters -compare
	// gates and the ExtendTaxon calls the engine made for them.
	add("SerialEngine", func(b *testing.B) {
		var last *search.Result
		for i := 0; i < b.N; i++ {
			res, err := search.Run(midSim.Constraints, search.Options{InitialTree: -1})
			if err != nil {
				b.Fatal(err)
			}
			last = res
		}
		if last != nil {
			b.ReportMetric(float64(last.Steps)*float64(b.N)/b.Elapsed().Seconds(), "steps/s")
			reportWork(b, last)
		}
	})

	// BenchmarkParallelGoroutines: the real work-stealing pool end to end.
	add("ParallelGoroutines", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := parallel.Run(midSim.Constraints, search.Options{Threads: 4, InitialTree: -1}); err != nil {
				b.Fatal(err)
			}
		}
	})

	// EngineSteps: the steady-state step loop in isolation — one op is one
	// transition of the paper's machine, as it was when a Step call was one
	// (calls/op says how many of them the engine still makes); allocs/op
	// here is the number PR 2 drove to zero.
	add("EngineSteps", func(b *testing.B) {
		tr, err := terrace.New(midSim.Constraints, 0)
		if err != nil {
			b.Fatal(err)
		}
		eng := search.NewEngine(tr)
		calls, done := 0, int64(0) // done: units of the engines before this one
		b.ResetTimer()
		for done+eng.Work().Units < int64(b.N) {
			calls++
			if eng.Step() == search.EvDone {
				b.StopTimer()
				done += eng.Work().Units
				tr, err = terrace.New(midSim.Constraints, 0)
				if err != nil {
					b.Fatal(err)
				}
				eng = search.NewEngine(tr)
				b.StartTimer()
			}
		}
		b.ReportMetric(float64(calls)/float64(b.N), "calls/op")
	})

	tr, taxa, branches, err := buildTerracePath(midSim)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchreport: %v\n", err)
		os.Exit(1)
	}

	// TerraceExtendRemove: the core state-transition pair.
	add("TerraceExtendRemove", func(b *testing.B) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := i % len(taxa)
			for j := 0; j <= k; j++ {
				tr.ExtendTaxon(taxa[j], branches[j][0])
			}
			for j := k; j >= 0; j-- {
				tr.RemoveTaxon()
			}
		}
	})

	// TerraceCountAllowed: the from-scratch admissibility count (constraint
	// scan plus preimage DFS) at half depth.
	add("TerraceCountAllowed", func(b *testing.B) {
		half := len(taxa) / 2
		for j := 0; j < half; j++ {
			tr.ExtendTaxon(taxa[j], branches[j][0])
		}
		rest := taxa[half:]
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tr.CountAllowedBranches(rest[i%len(rest)])
		}
		b.StopTimer()
		for tr.Depth() > 0 {
			tr.RemoveTaxon()
		}
	})

	extraBenches(add, midSim, tr, taxa, branches)
	for _, pair := range standPairs {
		serial, pool, err := pair.run(flag.CommandLine.Lookup("test.benchtime").Value.String())
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchreport: %s stands: %v\n", pair.name, err)
			os.Exit(1)
		}
		put(serial)
		put(pool)
	}
	rows, err := refStand(midSim, flag.CommandLine.Lookup("test.benchtime").Value.String())
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchreport: reference-stand pairs: %v\n", err)
		os.Exit(1)
	}
	for _, r := range rows {
		put(r)
	}
	emit, strs, err := emitStrings(midSim, flag.CommandLine.Lookup("test.benchtime").Value.String())
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchreport: strings/blocks pair: %v\n", err)
		os.Exit(1)
	}
	put(emit)
	put(strs)
	cut, derive, err := deriveCut(midSim, flag.CommandLine.Lookup("test.benchtime").Value.String())
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchreport: derive/cut pair: %v\n", err)
		os.Exit(1)
	}
	put(cut)
	put(derive)
	stopProfile()

	data, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchreport: %v\n", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if *outPath != "" {
		if err := os.WriteFile(*outPath, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "benchreport: %v\n", err)
			os.Exit(1)
		}
	} else {
		os.Stdout.Write(data)
	}

	if *compare != "" {
		fails, err := printComparison(*compare, &rep, *maxRegress)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchreport: compare: %v\n", err)
			os.Exit(1)
		}
		for _, f := range fails {
			fmt.Fprintf(os.Stderr, "benchreport: FAIL: %s\n", f)
		}
		if len(fails) > 0 {
			os.Exit(1)
		}
	}
}

// printComparison diffs the current report against a baseline file, prints
// the table and returns one message per gate that fails. Exact work counters
// (exactMetrics) must equal the baseline's and in-run ratios (ratioMetrics)
// stay within maxRatioUp of it, whatever maxRegress says. With maxRegress
// above 0 three more gates apply. The worst ns/op regression over shared
// rows, as a percentage, must not exceed it. Allocs/op must not grow by more
// than a quarter of the baseline's on any row: the count is a property of the
// code, not of the host, so this half of the gate can be tight where the
// ns/op half has to be generous. A baseline of 0 to 3 leaves no slack at all
// (TreeNewick's 1 is the returned string); the quarter is for
// ParallelGoroutines, whose count moves by a tenth with the number of tasks
// stolen. Bytes/op must not grow by more than a quarter either, on the rows
// whose bytes are the input's alone (bytesRows).
func printComparison(path string, cur *Report, maxRegress float64) (fails []string, err error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var base Report
	if err := json.Unmarshal(raw, &base); err != nil {
		return nil, err
	}
	byName := map[string]BenchResult{}
	for _, b := range base.Benchmarks {
		byName[b.Name] = b
	}
	worstRegress := -100.0
	var exactOff, ratioUp, allocsUp, bytesUp []string
	fmt.Fprintf(os.Stderr, "\n%-28s %14s %14s %9s %9s %21s\n",
		"benchmark", "base ns/op", "now ns/op", "speedup", "allocs", "bytes")
	for _, b := range cur.Benchmarks {
		o, ok := byName[b.Name]
		if !ok {
			fmt.Fprintf(os.Stderr, "%-28s %14s %14.1f %9s %6d->%d %10d->%d\n",
				b.Name, "(new)", b.NsPerOp, "-", 0, b.AllocsPerOp, 0, b.BytesPerOp)
			continue
		}
		speed := o.NsPerOp / b.NsPerOp
		if o.NsPerOp > 0 {
			if reg := (b.NsPerOp - o.NsPerOp) / o.NsPerOp * 100; reg > worstRegress {
				worstRegress = reg
			}
		}
		if b.AllocsPerOp > o.AllocsPerOp+o.AllocsPerOp/4 {
			allocsUp = append(allocsUp, fmt.Sprintf("%s %d->%d", b.Name, o.AllocsPerOp, b.AllocsPerOp))
		}
		if slices.Contains(bytesRows, b.Name) && b.BytesPerOp > o.BytesPerOp+o.BytesPerOp/4 {
			bytesUp = append(bytesUp, fmt.Sprintf("%s %d->%d", b.Name, o.BytesPerOp, b.BytesPerOp))
		}
		for _, m := range exactMetrics {
			was, had := o.Metrics[m]
			if now, has := b.Metrics[m]; had && has && was != now {
				exactOff = append(exactOff, fmt.Sprintf("%s %s %.0f->%.0f", b.Name, m, was, now))
			}
		}
		for _, m := range ratioMetrics {
			was, had := o.Metrics[m]
			if now, has := b.Metrics[m]; had && has && now > was*(1+maxRatioUp) {
				ratioUp = append(ratioUp, fmt.Sprintf("%s %s %.3f->%.3f", b.Name, m, was, now))
			}
		}
		fmt.Fprintf(os.Stderr, "%-28s %14.1f %14.1f %8.2fx %6d->%d %10d->%d\n",
			b.Name, o.NsPerOp, b.NsPerOp, speed, o.AllocsPerOp, b.AllocsPerOp, o.BytesPerOp, b.BytesPerOp)
	}
	if len(exactOff) > 0 {
		fails = append(fails, "exact work counters differ from the baseline's: "+strings.Join(exactOff, ", "))
	}
	if len(ratioUp) > 0 {
		fails = append(fails, fmt.Sprintf("in-run ratios more than %.0f%% above the baseline's: %s",
			maxRatioUp*100, strings.Join(ratioUp, ", ")))
	}
	if maxRegress <= 0 {
		return fails, nil
	}
	if worstRegress > maxRegress {
		fails = append(fails, fmt.Sprintf("worst ns/op regression %.1f%% exceeds -max-regress %.1f%%", worstRegress, maxRegress))
	}
	if len(allocsUp) > 0 {
		fails = append(fails, "allocs/op more than a quarter above the baseline: "+strings.Join(allocsUp, ", "))
	}
	if len(bytesUp) > 0 {
		fails = append(fails, "bytes/op more than a quarter above the baseline: "+strings.Join(bytesUp, ", "))
	}
	return fails, nil
}
