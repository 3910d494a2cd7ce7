// Command experiments regenerates every table and figure of the paper's
// evaluation (Sec. IV) plus the in-text experiments, using the virtual-time
// multicore simulator (see DESIGN.md for the hardware substitution).
//
// Usage:
//
//	experiments -exp all            # everything (minutes)
//	experiments -exp fig6           # one experiment
//	experiments -exp fig6 -quick    # smaller corpora (seconds)
//
// Experiments: verify, heuristics, fig6, fig7, fig8, table1, table2,
// batching, plateau, superlinear, ablations, orders, obs, all.
//
// -trace-out FILE additionally writes the deterministic virtual-time JSONL
// scheduler trace of a representative work-stealing run (byte-identical
// across invocations with the same seed).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"gentrius/internal/gen"
	"gentrius/internal/harness"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment id (verify|heuristics|fig6|fig7|fig8|table1|table2|batching|plateau|superlinear|ablations|orders|obs|all)")
		quick    = flag.Bool("quick", false, "smaller corpora for a fast smoke run")
		corpus   = flag.Int("corpus", 0, "override corpus size")
		seed     = flag.Int64("seed", 1, "corpus seed")
		traceOut = flag.String("trace-out", "", "write the deterministic JSONL scheduler trace of a representative work-stealing run to this file")
	)
	flag.Parse()

	n := 400
	if *quick {
		n = 60
	}
	if *corpus > 0 {
		n = *corpus
	}
	spec := func(r gen.Regime) harness.CorpusSpec {
		return harness.CorpusSpec{Regime: r, Count: n, Seed: *seed}
	}
	study := func(r gen.Regime) harness.StudySpec {
		return harness.StudySpec{Corpus: spec(r), MinSerialSeconds: 1}
	}

	run := func(name string, f func() (string, error)) {
		start := time.Now()
		out, err := f()
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("==== %s (%v) ====\n%s\n", name, time.Since(start).Round(time.Millisecond), out)
	}

	all := *exp == "all"
	if all || *exp == "verify" {
		run("verify (Sec. IV: serial == parallel == simulator)", func() (string, error) {
			return harness.VerifyParity(spec(gen.RegimeSimulated), 8, 7)
		})
	}
	if all || *exp == "heuristics" {
		run("heuristics ablation (Sec. II-B, emp-data-42370 analogue)", func() (string, error) {
			return harness.HeuristicsAblation(spec(gen.RegimeEmpirical), n)
		})
	}
	if all || *exp == "fig6" {
		run("Figure 6: speedup distributions, simulated corpus", func() (string, error) {
			out, _, err := harness.SpeedupFigure("Figure 6 (simulated data)", study(gen.RegimeSimulated))
			return out, err
		})
	}
	if all || *exp == "fig7" {
		run("Figure 7: speedup distributions, empirical-regime corpus", func() (string, error) {
			out, _, err := harness.SpeedupFigure("Figure 7 (empirical-regime data)", study(gen.RegimeEmpirical))
			return out, err
		})
	}
	if all || *exp == "fig8" {
		run("Figure 8: stopping-rule speedup distributions", func() (string, error) {
			a, err := harness.Fig8StoppingRules(study(gen.RegimeSimulated), 50)
			if err != nil {
				return "", err
			}
			b, err := harness.Fig8StoppingRules(study(gen.RegimeEmpirical), 50)
			if err != nil {
				return "", err
			}
			return a + "\n" + b, nil
		})
	}
	if all || *exp == "table1" {
		run("Table I: adapted speedups under the time limit", func() (string, error) {
			return harness.Table1AdaptedSpeedups(study(gen.RegimeSimulated), 5)
		})
	}
	if all || *exp == "table2" {
		run("Table II: scalability beyond 16 threads", func() (string, error) {
			return harness.Table2ManyThreads(study(gen.RegimeSimulated))
		})
	}
	if all || *exp == "batching" {
		run("counter-batching ablation (Sec. III-B)", func() (string, error) {
			return harness.BatchingAblation(spec(gen.RegimeSimulated), n, 1)
		})
	}
	if all || *exp == "plateau" {
		run("Figure 5a phenomenon: speedup plateaus", func() (string, error) {
			return harness.PlateauScan(spec(gen.RegimeSimulated), n, 3.0)
		})
	}
	if all || *exp == "superlinear" {
		run("Figure 5b phenomenon: super-linear stopping-rule speedups", func() (string, error) {
			return harness.SuperLinearScan(spec(gen.RegimeSimulated), n, 200_000, 2_000_000)
		})
	}
	if all || *exp == "ablations" {
		run("design-choice ablations (queue capacity, depth restriction, split granularity)", func() (string, error) {
			return harness.DesignAblations(spec(gen.RegimeSimulated), n, 3, 100_000)
		})
	}
	if all || *exp == "obs" {
		run("scheduler observability: per-run metric snapshots", func() (string, error) {
			return harness.ObsReport(study(gen.RegimeSimulated), 5)
		})
	}
	if all || *exp == "orders" {
		run("taxon-insertion-order heuristics (paper future work)", func() (string, error) {
			return harness.OrderHeuristics(spec(gen.RegimeSimulated), n, 4, 100_000)
		})
	}
	if *traceOut != "" {
		run(fmt.Sprintf("scheduler event trace -> %s", *traceOut), func() (string, error) {
			f, err := os.Create(*traceOut)
			if err != nil {
				return "", err
			}
			defer f.Close()
			st := study(gen.RegimeSimulated)
			st.Normalize()
			res, err := harness.TraceRepresentative(st.Corpus, 8, st.Limits, st.Clock, f)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("trees %d  states %d  stolen %d  flushes %d  ticks %d",
				res.StandTrees, res.IntermediateStates, res.TasksStolen, res.Flushes, res.Ticks), nil
		})
	}
	if !all {
		switch *exp {
		case "verify", "heuristics", "fig6", "fig7", "fig8", "table1", "table2",
			"batching", "plateau", "superlinear", "ablations", "orders", "obs":
		default:
			fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q\n", *exp)
			os.Exit(2)
		}
	}
}
