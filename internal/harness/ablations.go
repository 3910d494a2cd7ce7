package harness

import (
	"fmt"
	"strings"

	"gentrius/internal/gen"
	"gentrius/internal/parallel"
	"gentrius/internal/search"
	"gentrius/internal/stats"
)

// DesignAblations evaluates the parallelization's tunable design choices
// that the paper fixes "based on the results of preliminary experiments"
// (Sec. III-A): the task-queue capacity rule (N_t+1 / N_t/2), the
// >=3-remaining-taxa submission restriction, and the divide-in-half task
// granularity. It sweeps each choice at 16 workers on a few substantial
// datasets and reports the resulting speedups.
func DesignAblations(spec CorpusSpec, scan, nDatasets int, minSerialTicks int64) (string, error) {
	cfg := spec.config()
	lim, vt := search.Limits{MaxTrees: 2_000_000, MaxStates: 2_000_000}, parallel.VirtualTime{MaxTicks: 12_000_000}
	type pick struct {
		ds     *gen.Dataset
		serial int64
	}
	var picks []pick
	for idx := 0; idx < scan && len(picks) < nDatasets; idx++ {
		ds := gen.Generate(cfg, idx)
		serial, err := simulate(ds, 1, lim, vt)
		if err != nil {
			return "", err
		}
		if serial.Stop != search.StopExhausted || serial.Ticks < minSerialTicks {
			continue
		}
		picks = append(picks, pick{ds, serial.Ticks})
	}
	if len(picks) == 0 {
		return "", fmt.Errorf("harness: no substantial dataset in scan range")
	}
	var b strings.Builder
	b.WriteString("Design-choice ablations at 16 workers (speedup vs 1 worker)\n\n")

	speedupWith := func(p pick, pol search.Policy) (float64, error) {
		res, err := parallel.Simulate(p.ds.Constraints, search.Options{
			Threads: 16, InitialTree: -1, Limits: lim, Policy: pol,
		}, vt)
		if err != nil {
			return 0, err
		}
		return stats.Speedup(float64(p.serial), float64(res.Ticks)), nil
	}

	// 1. Queue capacity sweep (paper rule for 16 workers: N_t/2 = 8).
	caps := []int{1, 2, 4, 8, 17, 64}
	header := []string{"Dataset"}
	for _, c := range caps {
		label := fmt.Sprintf("cap=%d", c)
		if c == 8 {
			label += "*"
		}
		header = append(header, label)
	}
	var rows [][]string
	for _, p := range picks {
		row := []string{p.ds.Name}
		for _, c := range caps {
			sp, err := speedupWith(p, search.Policy{QueueCap: c})
			if err != nil {
				return "", err
			}
			row = append(row, fmt.Sprintf("%.2f", sp))
		}
		rows = append(rows, row)
	}
	b.WriteString("Task-queue capacity (* = paper rule):\n")
	b.WriteString(stats.Table(header, rows))
	b.WriteByte('\n')

	// 2. Submission depth restriction (paper: min remaining taxa = 3).
	mins := []int{1, 3, 6, 12}
	header = []string{"Dataset"}
	for _, m := range mins {
		label := fmt.Sprintf("min=%d", m)
		if m == 3 {
			label += "*"
		}
		header = append(header, label)
	}
	rows = rows[:0]
	for _, p := range picks {
		row := []string{p.ds.Name}
		for _, m := range mins {
			sp, err := speedupWith(p, search.Policy{MinRemaining: m})
			if err != nil {
				return "", err
			}
			row = append(row, fmt.Sprintf("%.2f", sp))
		}
		rows = append(rows, row)
	}
	b.WriteString("Task-submission depth restriction (remaining taxa; * = paper value):\n")
	b.WriteString(stats.Table(header, rows))
	b.WriteByte('\n')

	// 3. Split granularity (paper: divide in half).
	pols := []search.SplitPolicy{search.SplitOne, search.SplitHalf, search.SplitAllButOne}
	header = []string{"Dataset", "one", "half*", "all-but-one"}
	rows = rows[:0]
	for _, p := range picks {
		row := []string{p.ds.Name}
		for _, pol := range pols {
			sp, err := speedupWith(p, search.Policy{Split: pol})
			if err != nil {
				return "", err
			}
			row = append(row, fmt.Sprintf("%.2f", sp))
		}
		rows = append(rows, row)
	}
	b.WriteString("Task split granularity (* = paper choice):\n")
	b.WriteString(stats.Table(header, rows))
	return b.String(), nil
}

// OrderHeuristics evaluates alternative taxon-insertion-order heuristics —
// the paper's stated future work (Sec. V) — on serial efficiency (work
// performed) and on 16-worker parallel speedup, for a few substantial
// datasets.
func OrderHeuristics(spec CorpusSpec, scan, nDatasets int, minSerialTicks int64) (string, error) {
	cfg := spec.config()
	lim, vt := search.Limits{MaxTrees: 2_000_000, MaxStates: 2_000_000}, parallel.VirtualTime{MaxTicks: 12_000_000}
	heuristics := []search.OrderHeuristic{
		search.OrderMinBranches,
		search.OrderMinBranchesTieDegree,
		search.OrderMaxBranches,
	}
	header := []string{"Dataset"}
	for _, h := range heuristics {
		header = append(header, h.String()+" work", h.String()+" sp16")
	}
	var rows [][]string
	for idx := 0; idx < scan && len(rows) < nDatasets; idx++ {
		ds := gen.Generate(cfg, idx)
		base, err := simulate(ds, 1, lim, vt)
		if err != nil {
			return "", err
		}
		if base.Stop != search.StopExhausted || base.Ticks < minSerialTicks {
			continue
		}
		row := []string{ds.Name}
		trees := base.StandTrees
		for _, h := range heuristics {
			s1, err := parallel.Simulate(ds.Constraints, search.Options{
				Threads: 1, InitialTree: -1, Limits: lim, Heuristic: h,
			}, vt)
			if err != nil {
				return "", err
			}
			s16, err := parallel.Simulate(ds.Constraints, search.Options{
				Threads: 16, InitialTree: -1, Limits: lim, Heuristic: h,
			}, vt)
			if err != nil {
				return "", err
			}
			if s1.Stop == search.StopExhausted && s1.StandTrees != trees {
				return "", fmt.Errorf("%s: heuristic %v changed the stand size (%d vs %d)",
					ds.Name, h, s1.StandTrees, trees)
			}
			work := float64(s1.Ticks) / float64(base.Ticks)
			row = append(row, fmt.Sprintf("%.2fx", work),
				fmt.Sprintf("%.2f", stats.Speedup(float64(s1.Ticks), float64(s16.Ticks))))
		}
		rows = append(rows, row)
	}
	if len(rows) == 0 {
		return "", fmt.Errorf("harness: no substantial dataset in scan range")
	}
	return "Taxon-insertion-order heuristics (work relative to min-branches; speedup at 16 workers)\n" +
		stats.Table(header, rows), nil
}
