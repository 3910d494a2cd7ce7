package harness

import (
	"fmt"
	"sort"
	"strings"

	"gentrius/internal/gen"
	"gentrius/internal/parallel"
	"gentrius/internal/search"
	"gentrius/internal/stats"
)

// runGoroutine runs the real goroutine-based parallel engine on a dataset.
func runGoroutine(ds *gen.Dataset, workers int, lim search.Limits) (*parallel.Result, error) {
	return parallel.Run(ds.Constraints, search.Options{
		Threads:      workers,
		InitialTree:  -1,
		Limits:       lim,
		CollectTrees: true,
	})
}

// PlateauScan reproduces the Figure 5a phenomenon: datasets whose unbalanced
// workflow trees cap the parallel speedup well below the worker count
// (the paper reports ~3x and ~5x plateaus on sim-data-1511/1792/1795,
// all with serial times below 10 s). It scans the corpus for completable
// datasets whose 16-worker speedup stays under the threshold and reports
// their whole sweep.
func PlateauScan(spec CorpusSpec, scan int, maxSpeedup float64) (string, error) {
	cfg := spec.config()
	lim, vt := search.Limits{MaxTrees: 2_000_000, MaxStates: 2_000_000}, parallel.VirtualTime{MaxTicks: 12_000_000}
	type cand struct {
		idx   int
		ticks int64
		sp16  float64
	}
	var cands []cand
	for idx := 0; idx < scan; idx++ {
		ds := gen.Generate(cfg, idx)
		serial, err := simulate(ds, 1, lim, vt)
		if err != nil {
			return "", err
		}
		if serial.Stop != search.StopExhausted || serial.Ticks < 20_000 {
			continue
		}
		r16, err := simulate(ds, 16, lim, vt)
		if err != nil {
			return "", err
		}
		cands = append(cands, cand{idx, serial.Ticks,
			stats.Speedup(float64(serial.Ticks), float64(r16.Ticks))})
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5a phenomenon: speedup plateaus (plateau threshold: 16-worker speedup < %.1f)\n", maxSpeedup)
	if len(cands) == 0 {
		b.WriteString("  no substantial dataset in scan range\n")
		return b.String(), nil
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].sp16 < cands[j].sp16 })
	plateaus := 0
	for _, c := range cands {
		if c.sp16 < maxSpeedup {
			plateaus++
		}
	}
	fmt.Fprintf(&b, "%d of %d substantial datasets below the plateau threshold; most plateau-like sweeps:\n",
		plateaus, len(cands))
	show := cands
	if len(show) > 3 {
		show = show[:3]
	}
	var cells [][]string
	firstIdx, firstTicks := show[0].idx, show[0].ticks
	for _, c := range show {
		ds := gen.Generate(cfg, c.idx)
		row := []string{ds.Name, fmt.Sprintf("%.2f", float64(c.ticks)/TicksPerSecond)}
		for _, w := range ThreadCounts {
			res, err := simulate(ds, w, lim, vt)
			if err != nil {
				return "", err
			}
			row = append(row, fmt.Sprintf("%.2f", stats.Speedup(float64(c.ticks), float64(res.Ticks))))
		}
		cells = append(cells, row)
	}
	header := []string{"Dataset", "s.e.t.(s)"}
	for _, w := range ThreadCounts {
		header = append(header, fmt.Sprintf("%d", w))
	}
	b.WriteString(stats.Table(header, cells))
	// Worker timeline of the first plateau dataset at 8 workers — the
	// paper's Figure 3 picture: most workers idle ('.') while one or two
	// drag through the unbalanced region ('W').
	first := gen.Generate(cfg, firstIdx)
	vt.TraceEvery = maxI64(1, firstTicks/64/8)
	tl, err := simulate(first, 8, lim, vt)
	if err == nil && len(tl.Timeline) > 0 {
		fmt.Fprintf(&b, "\nworker timeline for %s at 8 workers (W=working, R=replay, .=idle):\n%s",
			first.Name, tl.RenderTimeline())
	}
	return b.String(), nil
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// SuperLinearScan reproduces the Figure 5b / sim-data-5001 phenomenon:
// under a reduced intermediate-state limit, the serial run burns its whole
// state budget in a tree-free region and stops with zero stand trees, while
// two workers concurrently descend into the tree-rich region and hit the
// tree limit quickly — a super-linear raw speedup.
func SuperLinearScan(spec CorpusSpec, scan int, stateLimit, treeLimit int64) (string, error) {
	cfg := spec.config()
	serialLim, vt := search.Limits{MaxTrees: treeLimit, MaxStates: stateLimit}, parallel.VirtualTime{MaxTicks: 1 << 40}
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5b phenomenon: stopping-rule super-linear speedups\n")
	fmt.Fprintf(&b, "(state limit %d, tree limit %d)\n", stateLimit, treeLimit)
	found := 0
	bestRatio, bestIdx := 0.0, -1
	for idx := 0; idx < scan && found < 5; idx++ {
		ds := gen.Generate(cfg, idx)
		serial, err := simulate(ds, 1, serialLim, vt)
		if err != nil {
			return "", err
		}
		if serial.Stop == search.StopExhausted {
			continue // only rule-bound datasets can distort
		}
		par, err := simulate(ds, 2, serialLim, vt)
		if err != nil {
			return "", err
		}
		ratio := stats.Speedup(float64(serial.Ticks), float64(par.Ticks))
		if ratio > bestRatio {
			bestRatio, bestIdx = ratio, idx
		}
		// Strict qualifier (the paper's sim-data-5001 anecdote): serial
		// exhausts its state budget nearly tree-free, two workers find the
		// tree-rich branch. Relaxed qualifier: any clearly super-linear raw
		// ratio at 2 workers.
		strict := serial.Stop == search.StopStateLimit &&
			serial.StandTrees <= serial.IntermediateStates/100 &&
			par.StandTrees > serial.StandTrees*2+1000
		relaxed := ratio >= 3.0
		if !strict && !relaxed {
			continue
		}
		found++
		kind := "super-linear ratio"
		if strict {
			kind = "tree-free serial descent (sim-data-5001 analogue)"
		}
		fmt.Fprintf(&b, "  %s [%s]: serial stops at %d states with %d trees after %d ticks;\n",
			ds.Name, kind, serial.IntermediateStates, serial.StandTrees, serial.Ticks)
		fmt.Fprintf(&b, "      2 workers count %d trees in %d ticks (raw ratio %.1fx, stop=%v)\n",
			par.StandTrees, par.Ticks, ratio, par.Stop)
	}
	if found == 0 {
		fmt.Fprintf(&b, "  no qualifying dataset in scan range; most extreme 2-worker raw ratio was %.2fx (dataset %d)\n",
			bestRatio, bestIdx)
		b.WriteString("  (our scaled corpus lacks the paper's tail of extremely unbalanced instances; see EXPERIMENTS.md)\n")
	}
	return b.String(), nil
}
