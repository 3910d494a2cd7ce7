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

// SpeedupFigure runs the Figure 6 (simulated) / Figure 7 (empirical)
// pipeline and renders the three panels (serial time > 1 s / 10 s / 50 s in
// scaled seconds).
func SpeedupFigure(title string, spec StudySpec) (string, *Study, error) {
	st, err := RunStudy(spec)
	if err != nil {
		return "", nil, err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "corpus: %d generated, %d fully enumerated, %d above %.0f scaled-second(s)\n\n",
		st.Generated, st.Complete, len(st.Runs), spec.MinSerialSeconds)
	for _, thr := range []float64{1, 10, 50} {
		n := st.CountAbove(thr)
		panel := fmt.Sprintf("(s.e.t. > %.0f scaled s, %d datasets)", thr, n)
		b.WriteString(stats.BoxPlot(panel, st.SpeedupDistributions(thr), 56))
		b.WriteByte('\n')
	}
	return b.String(), st, nil
}

// Table1AdaptedSpeedups reproduces Table I: datasets whose *serial* run hits
// the time limit; parallel runs either finish or enumerate more trees within
// the same budget, and are compared by adapted speedup.
func Table1AdaptedSpeedups(spec StudySpec, count int) (string, error) {
	if len(spec.Workers) == 0 {
		spec.Workers = ThreadCounts
	}
	// Find datasets whose serial run exceeds a tick budget; then impose
	// that budget as rule 3 on every run.
	cfg := spec.Corpus.config()
	budget := int64(1_000_000) // 10 scaled seconds of rule-3 budget
	lim, vt := search.Limits{MaxTrees: 1 << 40, MaxStates: 1 << 40}, parallel.VirtualTime{MaxTicks: budget}
	type row struct {
		name string
		asp  map[int]float64
	}
	var rows []row
	for idx := 0; idx < spec.Corpus.Count && len(rows) < count; idx++ {
		ds := gen.Generate(cfg, idx)
		serial, err := simulate(ds, 1, lim, vt)
		if err != nil {
			return "", err
		}
		if serial.Stop != search.StopTimeLimit || serial.StandTrees == 0 {
			continue // only datasets that time out serially qualify
		}
		r := row{name: ds.Name, asp: map[int]float64{}}
		for _, w := range spec.Workers {
			res, err := simulate(ds, w, lim, vt)
			if err != nil {
				return "", err
			}
			r.asp[w] = stats.AdaptedSpeedup(serial.StandTrees, res.StandTrees,
				float64(serial.Ticks), float64(res.Ticks))
		}
		rows = append(rows, r)
	}
	header := []string{"Dataset"}
	for _, w := range spec.Workers {
		header = append(header, fmt.Sprintf("%d", w))
	}
	var cells [][]string
	for _, r := range rows {
		c := []string{r.name}
		for _, w := range spec.Workers {
			c = append(c, fmt.Sprintf("%.1f", r.asp[w]))
		}
		cells = append(cells, c)
	}
	return "Table I: adapted speedups for datasets hitting the serial time limit\n" +
		stats.Table(header, cells), nil
}

// Table2ManyThreads reproduces Table II: the two datasets with the longest
// serial times, swept at 16/32/48 workers.
func Table2ManyThreads(spec StudySpec) (string, error) {
	spec.Normalize()
	st, err := RunStudy(spec)
	if err != nil {
		return "", err
	}
	workers := []int{16, 32, 48}
	top := st.LargestRuns(2)
	var cells [][]string
	for _, r := range top {
		row := []string{r.DS.Name, fmt.Sprintf("%.1f", r.SerialSeconds())}
		for _, w := range workers {
			res, err := simulate(r.DS, w, spec.Limits, spec.Clock)
			if err != nil {
				return "", err
			}
			row = append(row, fmt.Sprintf("%.2f",
				stats.Speedup(float64(r.Serial.Ticks), float64(res.Ticks))))
		}
		cells = append(cells, row)
	}
	return "Table II: speedups beyond 16 threads on the two largest datasets\n" +
		stats.Table([]string{"Dataset", "s.e.t.(s)", "16", "32", "48"}, cells), nil
}

// Fig8StoppingRules reproduces Figure 8: speedup distributions on datasets
// that trigger stopping rule 1 or 2 under reduced limits. Speedups are the
// (sometimes misleading) raw time ratios, as in the paper.
func Fig8StoppingRules(spec StudySpec, count int) (string, error) {
	if len(spec.Workers) == 0 {
		spec.Workers = ThreadCounts
	}
	cfg := spec.Corpus.config()
	// "Short analysis": reduced thresholds (paper: 10^7) scaled down.
	lim, vt := search.Limits{MaxTrees: 50_000, MaxStates: 50_000}, parallel.VirtualTime{MaxTicks: 1 << 40}
	dists := make([]stats.Distribution, len(spec.Workers))
	for i, w := range spec.Workers {
		dists[i].Label = fmt.Sprintf("%2d thr", w)
	}
	used := 0
	superLinear := 0
	for idx := 0; idx < spec.Corpus.Count && used < count; idx++ {
		ds := gen.Generate(cfg, idx)
		serial, err := simulate(ds, 1, lim, vt)
		if err != nil {
			return "", err
		}
		if serial.Stop != search.StopTreeLimit && serial.Stop != search.StopStateLimit {
			continue
		}
		if serial.Ticks < TicksPerSecond/4 {
			continue // skip the tiniest
		}
		used++
		for i, w := range spec.Workers {
			res, err := simulate(ds, w, lim, vt)
			if err != nil {
				return "", err
			}
			sp := stats.Speedup(float64(serial.Ticks), float64(res.Ticks))
			dists[i].Values = append(dists[i].Values, sp)
			if sp > float64(w)*1.5 {
				superLinear++
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 8 (%s): speedups on %d datasets triggering stopping rule 1 or 2\n",
		spec.Corpus.Regime, used)
	b.WriteString(stats.BoxPlot("reduced limits (rule-1/2 bound)", dists, 56))
	fmt.Fprintf(&b, "super-linear observations (> 1.5x ideal): %d\n", superLinear)
	return b.String(), nil
}

// HeuristicsAblation reproduces the Sec. II-B in-text experiment (the
// emp-data-42370 analysis): the same dataset analysed with both heuristics,
// without the initial-tree selection, and without dynamic taxon insertion.
func HeuristicsAblation(spec CorpusSpec, scan int) (string, error) {
	cfg := spec.config()
	// The paper picks a dataset that demonstrates both heuristics
	// (emp-data-42370); we do the same — scan the corpus for the
	// fully-enumerable dataset on which disabling the heuristics hurts the
	// most (sum of work ratios), under a work cap.
	lim := search.Limits{MaxTrees: 500_000, MaxStates: 1_000_000}
	bestIdx, bestScore, bestTrees := -1, 0.0, int64(0)
	for idx := 0; idx < scan; idx++ {
		ds := gen.Generate(cfg, idx)
		base, err := search.Run(ds.Constraints, search.Options{InitialTree: -1, Limits: lim})
		if err != nil {
			return "", err
		}
		if base.Stop != search.StopExhausted || base.StandTrees < 100 || base.Steps > 3_000_000 {
			continue
		}
		noInit, err := search.Run(ds.Constraints, search.Options{
			InitialTree: search.ChooseWorstInitialTree(ds.Constraints), Limits: lim})
		if err != nil {
			return "", err
		}
		noOrder, err := search.Run(ds.Constraints, search.Options{
			InitialTree: -1, DisableDynamicOrder: true, ShuffleSeed: 42, Limits: lim})
		if err != nil {
			return "", err
		}
		// Prefer datasets where *both* ablations hurt (the paper's example
		// shows a 3.5x and a 12x effect on one dataset); fall back to the
		// largest single effect when no dataset shows both.
		rInit := float64(noInit.Steps) / float64(base.Steps)
		rOrder := float64(noOrder.Steps) / float64(base.Steps)
		score := (rInit-1)*(rOrder-1) + 0.01*(rInit+rOrder)
		if score > bestScore {
			bestScore, bestIdx, bestTrees = score, idx, base.StandTrees
		}
	}
	if bestIdx < 0 {
		return "", fmt.Errorf("harness: no fully-enumerated dataset in scan range")
	}
	ds := gen.Generate(cfg, bestIdx)
	type cfgRow struct {
		label string
		opt   search.Options
	}
	rows := []cfgRow{
		{"both heuristics", search.Options{InitialTree: -1, Limits: lim}},
		{"min-overlap initial tree", search.Options{
			InitialTree: search.ChooseWorstInitialTree(ds.Constraints), Limits: lim}},
		{"random taxon order", search.Options{InitialTree: -1, DisableDynamicOrder: true, ShuffleSeed: 42, Limits: lim}},
	}
	var cells [][]string
	var baseSteps int64
	for i, r := range rows {
		res, err := search.Run(ds.Constraints, r.opt)
		if err != nil {
			return "", err
		}
		if i == 0 {
			baseSteps = res.Steps
		}
		cells = append(cells, []string{
			r.label,
			fmt.Sprintf("%d", res.StandTrees),
			fmt.Sprintf("%d", res.IntermediateStates),
			fmt.Sprintf("%d", res.DeadEnds),
			fmt.Sprintf("%.1fx", float64(res.Steps)/float64(baseSteps)),
			res.Stop.String(),
		})
	}
	return fmt.Sprintf("Heuristics ablation on %s (stand size %d)\n", ds.Name, bestTrees) +
		stats.Table([]string{"Configuration", "Trees", "States", "DeadEnds", "Work", "Stop"}, cells), nil
}

// BatchingAblation reproduces the Sec. III-B counter-batching experiment:
// at 16 workers with a contention cost per flush, batched updates
// (2^10/2^13/2^10) vs per-event updates.
func BatchingAblation(spec CorpusSpec, scan int, flushCost int64) (string, error) {
	cfg := spec.config()
	var b strings.Builder
	fmt.Fprintf(&b, "Counter-batching ablation (16 workers, flush cost %d tick(s))\n", flushCost)
	b.WriteString("note: virtual time quantizes costs at 1 tick = 1 state transition, so the\n" +
		"per-event column is an upper bound on contention loss; the paper's finer-grained\n" +
		"atomics cost ~1-3% of a transition, yielding its 2-5% improvement.\n")
	var cells [][]string
	found := 0
	lim, vt := search.Limits{MaxTrees: 400_000, MaxStates: 400_000}, parallel.VirtualTime{MaxTicks: 4_000_000}
	contended := parallel.VirtualTime{MaxTicks: vt.MaxTicks, FlushCost: flushCost}
	for idx := 0; idx < scan && found < 4; idx++ {
		ds := gen.Generate(cfg, idx)
		serial, err := simulate(ds, 1, lim, vt)
		if err != nil {
			return "", err
		}
		if serial.Stop != search.StopExhausted || serial.Ticks < 100_000 {
			continue
		}
		found++
		batched, err := simulate(ds, 16, lim, contended)
		if err != nil {
			return "", err
		}
		unbatched, err := parallel.Simulate(ds.Constraints, search.Options{
			Threads: 16, InitialTree: -1, Limits: lim,
			Policy: search.Policy{TreeBatch: 1, StateBatch: 1, DeadEndBatch: 1},
		}, contended)
		if err != nil {
			return "", err
		}
		spB := stats.Speedup(float64(serial.Ticks), float64(batched.Ticks))
		spU := stats.Speedup(float64(serial.Ticks), float64(unbatched.Ticks))
		cells = append(cells, []string{
			ds.Name,
			fmt.Sprintf("%.2f", spU),
			fmt.Sprintf("%.2f", spB),
			fmt.Sprintf("%+.1f%%", 100*(spB-spU)/spU),
		})
	}
	b.WriteString(stats.Table([]string{"Dataset", "per-event", "batched", "improvement"}, cells))
	return b.String(), nil
}

// VerifyParity is the paper's Sec. IV verification: serial, goroutine-
// parallel and simulated runs must produce identical counters (and stands,
// via canonical Newick sets) on every dataset checked. It returns a report
// and an error if any dataset disagrees.
func VerifyParity(spec CorpusSpec, count int, workers int) (string, error) {
	cfg := spec.config()
	lim := search.Limits{MaxTrees: 50_000, MaxStates: 100_000}
	checked := 0
	for idx := 0; idx < spec.Count && checked < count; idx++ {
		ds := gen.Generate(cfg, idx)
		serial, err := search.Run(ds.Constraints, search.Options{
			InitialTree: -1, Limits: lim, CollectTrees: true,
		})
		if err != nil {
			return "", err
		}
		if serial.Stop != search.StopExhausted {
			continue
		}
		checked++
		sim, err := parallel.Simulate(ds.Constraints, search.Options{
			Threads: workers, InitialTree: -1, CollectTrees: true,
		}, parallel.VirtualTime{})
		if err != nil {
			return "", err
		}
		if sim.Counters != serial.Counters {
			return "", fmt.Errorf("%s: simulator counters %+v != serial %+v",
				ds.Name, sim.Counters, serial.Counters)
		}
		if !sameTreeSet(sim.Trees, serial.Trees) {
			return "", fmt.Errorf("%s: simulator stand differs from serial", ds.Name)
		}
		// Real goroutine engine.
		// Imported lazily to keep the harness free of goroutine scheduling
		// in the common paths... (direct call; package parallel).
		par, err := runGoroutine(ds, workers, lim)
		if err != nil {
			return "", err
		}
		if par.Counters != serial.Counters {
			return "", fmt.Errorf("%s: parallel counters %+v != serial %+v",
				ds.Name, par.Counters, serial.Counters)
		}
		if !sameTreeSet(par.Trees, serial.Trees) {
			return "", fmt.Errorf("%s: parallel stand differs from serial", ds.Name)
		}
	}
	return fmt.Sprintf("verified %d datasets: serial == parallel(%d goroutines) == simulator(%d workers)\n"+
		"  (stand-tree, intermediate-state and dead-end counts, and exact tree sets)\n",
		checked, workers, workers), nil
}

func sameTreeSet(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	as, bs := append([]string(nil), a...), append([]string(nil), b...)
	sort.Strings(as)
	sort.Strings(bs)
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}
