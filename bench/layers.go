package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gentrius"
	"gentrius/internal/bitset"
	"gentrius/internal/dist"
	"gentrius/internal/obs"
	"gentrius/internal/parallel"
	"gentrius/internal/search"
	"gentrius/internal/service"
	"gentrius/internal/terrace"
)

// sink keeps the compiler from dropping the loops microLayers times.
var sink int

// side is one side pass of the traced run: a way of doing the workload's
// work through one layer's public functions. The side
// passes run round-robin like the timed variants, and each keeps the floor
// of its pass times.
type side struct {
	name    string
	reps    int // runs per round; 0 means 1
	run     func() (seconds float64, problems []string)
	samples []float64
}

// parsed is a unit with its constraint trees already read, for the layers
// below the parser.
type parsed struct {
	in   *input
	cons []*gentrius.Tree
	exp  expected
}

func parseAll(inputs []input, exps []expected) ([]parsed, error) {
	out := make([]parsed, len(inputs))
	for i := range inputs {
		cons, err := parseInput(&inputs[i])
		if err != nil {
			return nil, err
		}
		out[i] = parsed{in: &inputs[i], cons: cons, exp: exps[i]}
	}
	return out, nil
}

// timeUnits runs f over every unit and returns the summed wall time and
// what differed from the oracle.
func timeUnits(units []parsed, f func(u *parsed) (observed, error)) (float64, []string) {
	var problems []string
	runtime.GC()
	t0 := time.Now()
	for i := range units {
		got, err := f(&units[i])
		if err != nil {
			problems = append(problems, err.Error())
		} else if p := units[i].exp.check(got); p != "" {
			problems = append(problems, units[i].in.Name+": "+p)
		}
	}
	return time.Since(t0).Seconds(), problems
}

func serialRun(onTree func(string)) func(u *parsed) (observed, error) {
	return func(u *parsed) (observed, error) {
		res, err := search.Run(u.cons, search.Options{InitialTree: -1, Limits: unlimited, OnTree: onTree})
		if err != nil {
			return observed{}, err
		}
		return observed{Counters: res.Counters, Stop: res.Stop.String()}, nil
	}
}

// poolStats is what the T=2 pool side pass keeps besides its time.
type poolStats struct {
	steals    []float64
	imbalance []float64
	mallocs   []float64
}

func poolRun(threads int, onTree func(string), st *poolStats) func(u *parsed) (observed, error) {
	return func(u *parsed) (observed, error) {
		res, err := parallel.Run(u.cons, parallel.Options{Threads: threads, InitialTree: -1, Limits: unlimited, OnTree: onTree})
		if err != nil {
			return observed{}, err
		}
		if st != nil {
			st.steals[len(st.steals)-1] += float64(res.TasksStolen)
			var sum, max float64
			for _, w := range res.PerWorker {
				s := float64(w.IntermediateStates)
				sum += s
				if s > max {
					max = s
				}
			}
			if sum > 0 && max*float64(len(res.PerWorker))/sum > st.imbalance[len(st.imbalance)-1] {
				st.imbalance[len(st.imbalance)-1] = max * float64(len(res.PerWorker)) / sum
			}
		}
		return observed{Counters: res.Counters, Stop: res.Stop.String()}, nil
	}
}

// tracedReps is how often the traced run repeats every side pass, the
// single-layer loops and the traced pass: a fixed count, like R.
const tracedReps = 4

// runTraced is the traced run: one pass decomposed into spans, and the
// per-layer ledger. It reports no end-to-end metric. A row is measured only
// on the workloads that exercise its layer and reads 0 on the others: the
// emit rows where the pass serialises trees, the service and dist rows on
// serve-jobs, parallel.startup_us where the pass has a small unit.
func runTraced(cfg *config) (*report, error) {
	p, err := prepare(cfg)
	if err != nil {
		return nil, err
	}
	defer p.cleanup()
	reps := tracedReps
	if cfg.Quick {
		reps = 1
	}
	led := &ledger{}
	rows := map[string]metric{}
	set := func(name string, v float64, unit string) { rows[name] = metric{v, unit} }

	own, err := parseAll(p.inputs, p.exps)
	if err != nil {
		return nil, err
	}
	emits := cfg.W.Kind != kindCount
	serves := cfg.W.Kind == kindServe
	big, small := &own[0], &own[0]
	var total search.Counters
	for i := range own {
		c := own[i].exp.Counters
		total.Add(c)
		if c.IntermediateStates+c.StandTrees > big.exp.Counters.IntermediateStates+big.exp.Counters.StandTrees {
			big = &own[i]
		}
		if c.IntermediateStates+c.StandTrees < small.exp.Counters.IntermediateStates+small.exp.Counters.StandTrees {
			small = &own[i]
		}
	}

	// --- side passes -----------------------------------------------------
	noop := func(string) {}
	pool := &poolStats{}
	var svc serveStats
	var submit, queueWait []float64 // per job, one value per repetition
	var fleet fleetCounts
	apiEmit := emitNone
	if cfg.W.Kind == kindStream {
		apiEmit = emitFile
	}
	libPass := func(lr libRun) func() (float64, []string) {
		return func() (float64, []string) {
			samples, problems := lr.pass(p.inputs, p.exps)
			var sum float64
			for _, s := range samples {
				sum += s.wall
			}
			return sum, problems
		}
	}
	units := func(us []parsed, f func(u *parsed) (observed, error)) func() (float64, []string) {
		return func() (float64, []string) { return timeUnits(us, f) }
	}
	sides := []*side{
		{name: "parse", run: func() (float64, []string) {
			t0 := time.Now()
			for i := range p.inputs {
				if _, err := parseInput(&p.inputs[i]); err != nil {
					return 0, []string{err.Error()}
				}
			}
			return time.Since(t0).Seconds(), nil
		}},
		{name: "serial", run: units(own, serialRun(nil))},
		{name: "pool1", run: units(own, poolRun(1, nil, nil))},
		{name: "pool2", run: func() (float64, []string) {
			pool.steals = append(pool.steals, 0)
			pool.imbalance = append(pool.imbalance, 0)
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			s, problems := timeUnits(own, poolRun(2, nil, pool))
			runtime.ReadMemStats(&ms1)
			pool.mallocs = append(pool.mallocs, float64(ms1.Mallocs-ms0.Mallocs))
			return s, problems
		}},
		{name: "api2", run: libPass(libRun{Threads: 2})},
		{name: "api2.metrics", run: func() (float64, []string) {
			metrics := &gentrius.ObsSink{Metrics: obs.NewSchedMetrics(obs.NewRegistry())}
			return libPass(libRun{Threads: 2, Sink: metrics})()
		}},
		{name: "api2.trace", run: func() (float64, []string) {
			trace := &gentrius.ObsSink{Trace: obs.NewRecorder(io.Discard, obs.WallClock(time.Now()))}
			return libPass(libRun{Threads: 2, Sink: trace})()
		}},
	}
	// The public T=1 pass as the timed run makes it: the base of the trace
	// ratios. On serve-jobs it also asks for every job's queue wait, one
	// more small request per job.
	api1 := libPass(libRun{Threads: 1, Emit: apiEmit, Dir: p.dir})
	if serves {
		api1 = func() (float64, []string) {
			sample, st, problems := serveRun{Threads: 1, Stats: true}.pass(filepath.Join(p.dir, "daemon"), p.inputs, p.exps)
			svc = st
			submit = append(submit, st.Submit.Seconds()/float64(len(own)))
			queueWait = append(queueWait, st.QueueWait.Seconds()/float64(len(own)))
			return sample.wall, problems
		}
	}
	sides = append(sides, &side{name: "api1", run: api1})
	if len(own) > 1 {
		sides = append(sides,
			&side{name: "small.serial", reps: 5, run: units([]parsed{*small}, serialRun(nil))},
			&side{name: "small.pool2", reps: 5, run: units([]parsed{*small}, poolRun(2, nil, nil))})
	}
	if emits {
		sides = append(sides,
			&side{name: "emit.serial.noop", run: units(own, serialRun(noop))},
			&side{name: "emit.pool2.noop", run: units(own, poolRun(2, noop, nil))})
	}
	if serves {
		sides = append(sides,
			&side{name: "jobs.manager", run: func() (float64, []string) {
				return managerPass(filepath.Join(p.dir, "daemon"), p.inputs, p.exps)
			}},
			&side{name: "jobs.file", run: libPass(libRun{Threads: 1, Emit: emitFile, Dir: p.dir})},
			&side{name: "jobs.lib2", run: libPass(libRun{Threads: 2, Emit: emitNoop})},
			&side{name: "jobs.fleet", run: func() (float64, []string) {
				s, c, problems := fleetPass(own)
				fleet = c
				return s, problems
			}})
	}
	for r := 0; r < reps; r++ {
		for _, s := range sides {
			for i := 0; i < max(s.reps, 1); i++ {
				sec, problems := s.run()
				s.samples = append(s.samples, sec)
				led.record(s.name, problems)
			}
		}
	}
	fl := map[string]float64{}
	noise := 0.0
	for _, s := range sides {
		fl[s.name] = floor(s.samples)
		if s.name == "serial" { // T=1, like the timed run's noise ratio
			noise = median(s.samples) / floor(s.samples)
		}
	}
	trees := float64(total.StandTrees)

	set("tree.parse_us", fl["parse"]*1e6, "us")
	set("search.run_s", fl["serial"], "s")
	set("search.states", float64(total.IntermediateStates), "count")
	set("search.trees", trees, "count")
	set("search.dead_ends", float64(total.DeadEnds), "count")
	set("parallel.t1_ratio", fl["pool1"]/fl["serial"], "ratio")
	set("parallel.speedup_t2", fl["serial"]/fl["pool2"], "ratio")
	set("parallel.steals", median(pool.steals), "count")
	set("parallel.imbalance", median(pool.imbalance), "ratio")
	set("parallel.mallocs_t2", minOf(pool.mallocs), "count")
	set("obs.metrics_ratio", fl["api2.metrics"]/fl["api2"], "ratio")
	set("obs.trace_ratio", fl["api2.trace"]/fl["api2"], "ratio")
	// Rows of layers this workload does not exercise read 0.
	for unit, names := range map[string][]string{
		"us":    {"parallel.startup_us", "search.emit_us_per_tree", "parallel.ontree_us_per_tree"},
		"ms":    {"service.submit_ms", "service.queue_wait_ms"},
		"s":     {"service.manager_wall_s"},
		"B":     {"service.stream_bytes_per_tree"},
		"ratio": {"service.spool_ratio", "service.http_ratio", "dist.fleet_ratio"},
		"count": {"service.http_requests", "service.errors", "dist.dispatches", "dist.heartbeats"},
	} {
		for _, name := range names {
			set(name, 0, unit)
		}
	}
	if len(own) > 1 {
		set("parallel.startup_us", (fl["small.pool2"]-fl["small.serial"])*1e6, "us")
	}
	if emits {
		set("search.emit_us_per_tree", (fl["emit.serial.noop"]-fl["serial"])/trees*1e6, "us")
		set("parallel.ontree_us_per_tree", (fl["emit.pool2.noop"]-fl["pool2"])/trees*1e6, "us")
	}
	if serves {
		set("service.submit_ms", floor(submit)*1e3, "ms")
		set("service.queue_wait_ms", floor(queueWait)*1e3, "ms")
		set("service.manager_wall_s", fl["jobs.manager"], "s")
		set("service.spool_ratio", fl["jobs.manager"]/fl["jobs.file"], "ratio")
		set("service.http_ratio", fl["api1"]/fl["jobs.manager"], "ratio")
		set("service.stream_bytes_per_tree", float64(svc.Bytes)/float64(svc.Trees), "B")
		set("service.http_requests", float64(svc.Requests), "count")
		set("service.errors", float64(svc.Errors), "count")
		set("dist.fleet_ratio", fl["jobs.fleet"]/fl["jobs.lib2"], "ratio")
		set("dist.dispatches", float64(fleet.dispatches), "count")
		set("dist.heartbeats", float64(fleet.heartbeats), "count")
	}

	// --- single-layer loops on the largest unit -----------------------------
	if err := microLayers(big, reps, set); err != nil {
		return nil, err
	}
	if err := checkpointLayers(big, set); err != nil {
		return nil, err
	}

	// --- the traced pass ----------------------------------------------------
	var best []span
	var bestWall float64
	for r := 0; r < reps; r++ {
		tr := newTracer()
		var problems []string
		if serves {
			sr := serveRun{Threads: 1, Tracer: tr, Stats: true}
			_, _, problems = sr.pass(filepath.Join(p.dir, "daemon"), p.inputs, p.exps)
		} else {
			problems = tracedLibPass(tr, own, apiEmit, p.dir)
		}
		led.record("traced", problems)
		if wall := rootTime(tr.spans).Seconds(); best == nil || wall < bestWall {
			best, bestWall = tr.spans, wall
		}
	}
	spansPath := filepath.Join(cfg.OutDir, cfg.W.Name+".spans.json")
	if err := writeChromeTrace(spansPath, best); err != nil {
		return nil, err
	}
	// What the layers explain of the pass is what the top-level spans' own
	// children cover; the tops all carry one name ("op", or "pass").
	self := selfTimes(best)
	explained := bestWall - self[best[0].Name].Seconds()
	set("bench.trace_overhead_ratio", bestWall/fl["api1"], "ratio")
	set("bench.trace_residual_ratio", (fl["api1"]-explained)/fl["api1"], "ratio")
	fmt.Printf("spans: %s (%d spans); self time by layer:\n", spansPath, len(best))
	for name, d := range self {
		fmt.Printf("  %-24s %10.3f ms\n", name, d.Seconds()*1e3)
	}

	set("host.noise_ratio", noise, "ratio")
	set("host.nproc", float64(runtime.NumCPU()), "count")
	set("bench.rounds", float64(reps), "count")
	set("bench.oracle_s", p.oracleS, "s")

	return &report{
		Workload: cfg.W.Name, Seed: cfg.Seed, Rounds: reps, Traced: true, Layers: rows,
		OpsAttempted: led.Attempted, OpsFailed: led.Failed, Failures: led.Failures,
	}, nil
}

// rootTime adds up the durations of the top-level spans.
func rootTime(spans []span) time.Duration {
	var d time.Duration
	for _, s := range spans {
		if s.Parent < 0 {
			d += s.End - s.Start
		}
	}
	return d
}

// tracedLibPass does what the public entry point does for each unit, one
// layer call at a time in the order the entry point makes them, each inside
// a span. It returns what differed from the oracle.
func tracedLibPass(tr *tracer, units []parsed, e emit, dir string) []string {
	var problems []string
	for i := range units {
		u := &units[i]
		op := i + 1
		root := tr.begin("op", -1, op)
		err := func() error {
			sp := tr.begin("tree.parse", root, op)
			cons, err := parseInput(u.in)
			tr.end(sp)
			if err != nil {
				return err
			}
			sp = tr.begin("search.choose_initial", root, op)
			idx := search.ChooseInitialTree(cons)
			tr.end(sp)
			sp = tr.begin("terrace.new", root, op)
			t, err := terrace.New(cons, idx)
			tr.end(sp)
			if err != nil {
				return err
			}
			eng := search.NewEngine(t)
			var file *os.File
			var bw *bufio.Writer
			engine := -1
			if e == emitFile {
				if file, err = os.Create(filepath.Join(dir, u.in.Name+".traced.nwk")); err != nil {
					return err
				}
				defer os.Remove(file.Name())
				defer file.Close()
				bw = bufio.NewWriterSize(file, 64<<10)
				eng.OnTree = func(nw string) {
					w := tr.begin("io.write", engine, op)
					bw.WriteString(nw) //nolint:errcheck // Flush reports it
					bw.WriteByte('\n') //nolint:errcheck
					tr.end(w)
				}
			}
			engine = tr.begin("search.engine", root, op)
			for eng.Step() != search.EvDone {
			}
			tr.end(engine)
			if bw != nil {
				sp = tr.begin("io.flush", root, op)
				err = bw.Flush()
				tr.end(sp)
				if err != nil {
					return err
				}
			}
			if p := u.exp.check(observed{Counters: eng.Counters(), Stop: search.StopExhausted.String()}); p != "" {
				return fmt.Errorf("%s", p)
			}
			return nil
		}()
		tr.end(root)
		if err != nil {
			problems = append(problems, u.in.Name+": "+err.Error())
		}
	}
	return problems
}

// microLayers times single layers in a loop on one unit: the Newick
// writer, the bit-set kernel, the Terrace's constructor and its
// state-transition and admissibility calls (as cmd/benchreport does), and
// the engine's step loop.
func microLayers(u *parsed, reps int, set func(string, float64, string)) error {
	best := func(n int, f func()) float64 { // floor of reps timings of f, per item
		var samples []float64
		for r := 0; r < reps; r++ {
			t0 := time.Now()
			f()
			samples = append(samples, time.Since(t0).Seconds()/float64(n))
		}
		return floor(samples)
	}

	// tree.newick_us_per_tree: up to 2000 of the unit's stand trees, parsed
	// back into Trees and written again.
	ctx, cancel := context.WithCancel(context.Background())
	var lines []string
	_, err := search.Run(u.cons, search.Options{InitialTree: -1, Limits: unlimited, Ctx: ctx, CheckEvery: 64,
		OnTree: func(nw string) {
			if lines = append(lines, nw); len(lines) == 2000 {
				cancel()
			}
		}})
	cancel()
	if err != nil {
		return err
	}
	if len(lines) > 2000 {
		lines = lines[:2000]
	}
	taxa := u.cons[0].Taxa()
	trees := make([]*gentrius.Tree, len(lines))
	for i, l := range lines {
		if trees[i], err = gentrius.ParseTree(l, taxa, false); err != nil {
			return err
		}
	}
	set("tree.newick_us_per_tree", best(len(trees), func() {
		for _, t := range trees {
			sink += len(t.Newick())
		}
	})*1e6, "us")

	// bitset.and_decode_ns: the AND-and-decode sweep over three rows as
	// wide as the unit's agile tree has edges, one bit in four set.
	edges := 2*taxa.Len() - 3
	nw := (edges + 63) / 64
	rng := rand.New(rand.NewSource(1))
	rowsOf := make([][]uint64, 3)
	for i := range rowsOf {
		rowsOf[i] = make([]uint64, nw)
		for w := range rowsOf[i] {
			rowsOf[i][w] = rng.Uint64() | rng.Uint64()
		}
	}
	buf := make([]int32, 0, edges)
	const sweeps = 200_000
	set("bitset.and_decode_ns", best(sweeps, func() {
		for i := 0; i < sweeps; i++ {
			buf = bitset.AppendAndBits32(buf[:0], rowsOf, nw)
		}
	})*1e9, "ns")
	sink += len(buf)

	idx := search.ChooseInitialTree(u.cons)
	var tr *terrace.Terrace
	set("terrace.new_us", best(1, func() { tr, err = terrace.New(u.cons, idx) })*1e6, "us")
	if err != nil {
		return err
	}

	// The greedy path: first admissible branch of every missing taxon.
	var path []int
	var at []int32
	for _, x := range tr.MissingTaxa() {
		br := tr.AllowedBranches(x)
		if len(br) == 0 {
			break
		}
		path, at = append(path, x), append(at, br[0])
		tr.ExtendTaxon(x, br[0])
	}
	for tr.Depth() > 0 {
		tr.RemoveTaxon()
	}
	if len(path) == 0 {
		return fmt.Errorf("%s: no insertable taxon", u.in.Name)
	}
	const walks = 200
	set("terrace.extend_remove_ns", best(walks*len(path), func() {
		for i := 0; i < walks; i++ {
			for j, x := range path {
				tr.ExtendTaxon(x, at[j])
			}
			for range path {
				tr.RemoveTaxon()
			}
		}
	})*1e9, "ns")
	half := len(path) / 2
	for j := 0; j < half; j++ {
		tr.ExtendTaxon(path[j], at[j])
	}
	rest := path[half:]
	const queries = 20_000
	set("terrace.allowed_ns", best(queries, func() {
		for i := 0; i < queries; i++ {
			buf = tr.AppendAllowedBranches(buf[:0], rest[i%len(rest)])
		}
	})*1e9, "ns")
	set("terrace.count_allowed_ns", best(queries, func() {
		for i := 0; i < queries; i++ {
			sink += tr.CountAllowedBranches(rest[i%len(rest)])
		}
	})*1e9, "ns")
	for tr.Depth() > 0 {
		tr.RemoveTaxon()
	}

	// search.step_ns, search.steps: the bare step loop on a fresh Terrace.
	var steps int64
	var stepSamples []float64
	for r := 0; r < reps; r++ {
		t, err := terrace.New(u.cons, idx)
		if err != nil {
			return err
		}
		eng := search.NewEngine(t)
		steps = 1
		t0 := time.Now()
		for eng.Step() != search.EvDone {
			steps++
		}
		stepSamples = append(stepSamples, time.Since(t0).Seconds()/float64(steps))
	}
	set("search.step_ns", floor(stepSamples)*1e9, "ns")
	set("search.steps", float64(steps), "count")
	return nil
}

// checkpointLayers snapshots a running T=2 enumeration on demand: the
// round trip of a trigger request is the quiesce latency, and the last
// snapshot is encoded and decoded. A run that ends before any request lands
// (a small stand) reports zeros.
func checkpointLayers(u *parsed, set func(string, float64, string)) error {
	var quiesce []float64
	var snap *gentrius.Checkpoint
	for attempt := 0; attempt < 3 && len(quiesce) < 10; attempt++ {
		trig := gentrius.NewCheckpointTrigger()
		done := make(chan error, 1)
		go func() {
			_, err := gentrius.EnumerateStand(u.cons, gentrius.Options{
				Threads: 2, InitialTree: gentrius.UseInitialTreeHeuristic,
				MaxTrees: -1, MaxStates: -1, MaxTime: -1,
				Checkpoint: &gentrius.CheckpointPolicy{Trigger: trig},
			})
			done <- err
		}()
		for len(quiesce) < 10 {
			t0 := time.Now()
			cp, err := trig.Request(context.Background())
			if err != nil {
				break // the run has ended
			}
			quiesce = append(quiesce, time.Since(t0).Seconds())
			snap = cp
		}
		if err := <-done; err != nil {
			return err
		}
	}
	var encode, decode []float64
	var size int
	if snap != nil {
		for r := 0; r < 5; r++ {
			var buf bytes.Buffer
			t0 := time.Now()
			if err := snap.Write(&buf); err != nil {
				return err
			}
			encode = append(encode, time.Since(t0).Seconds())
			size = buf.Len()
			t0 = time.Now()
			if _, err := gentrius.ReadCheckpoint(&buf); err != nil {
				return err
			}
			decode = append(decode, time.Since(t0).Seconds())
		}
	}
	zeroIfNone := func(v float64) float64 {
		if snap == nil {
			return 0
		}
		return v
	}
	set("parallel.quiesce_ms", zeroIfNone(median(quiesce)*1e3), "ms")
	set("search.ckpt_encode_us", zeroIfNone(floor(encode)*1e6), "us")
	set("search.ckpt_decode_us", zeroIfNone(floor(decode)*1e6), "us")
	set("search.ckpt_bytes", float64(size), "B")
	return nil
}

// managerPass runs the job list through the service manager without HTTP:
// two closed-loop submitters, each waiting for its job to end.
func managerPass(dir string, jobs []input, exps []expected) (float64, []string) {
	d, err := startDaemon(dir)
	if err != nil {
		return 0, []string{"daemon: " + err.Error()}
	}
	defer d.stop()
	var next atomic.Int64
	var mu sync.Mutex
	var problems []string
	var wg sync.WaitGroup
	runtime.GC()
	t0 := time.Now()
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				problem := ""
				job, err := d.mgr.Submit(service.JobRequest{Trees: jobs[i].Lines, Threads: 1,
					MaxTrees: -1, MaxStates: -1, MaxTimeSeconds: -1})
				if err != nil {
					problem = err.Error()
				} else {
					<-job.Done()
					st := job.Status()
					got := observed{Stop: st.StopReason}
					got.Counters.StandTrees = st.StandTrees
					got.Counters.IntermediateStates = st.Intermediate
					got.Counters.DeadEnds = st.DeadEnds
					problem = exps[i].check(got)
					if problem == "" && st.TreesSpooled != exps[i].Trees.N {
						problem = fmt.Sprintf("%d trees spooled, oracle %d", st.TreesSpooled, exps[i].Trees.N)
					}
				}
				if problem != "" {
					mu.Lock()
					problems = append(problems, jobs[i].Name+": "+problem)
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return time.Since(t0).Seconds(), problems
}

// fleetCounts is what the counting transports saw during a fleet pass.
type fleetCounts struct {
	dispatches int64
	heartbeats int64
}

type countingWorker struct {
	dist.WorkerClient
	n *atomic.Int64
}

func (c countingWorker) Dispatch(ctx context.Context, req *dist.DispatchRequest) (*dist.DispatchResponse, error) {
	c.n.Add(1)
	return c.WorkerClient.Dispatch(ctx, req)
}

type countingCoordinator struct {
	dist.CoordinatorClient
	n *atomic.Int64
}

func (c countingCoordinator) Heartbeat(ctx context.Context, req *dist.HeartbeatRequest) (*dist.HeartbeatResponse, error) {
	c.n.Add(1)
	return c.CoordinatorClient.Heartbeat(ctx, req)
}

// fleetPass runs the jobs one after the other through a coordinator and
// two single-threaded workers joined by the in-memory transports. The
// coordinator re-parses the constraints, which may number the taxa
// differently from the oracle; that changes the order of the subtrees in
// its output and, through ties in the insertion order, by a few the number
// of intermediate states. The pass therefore checks the stop reason, the
// stand size and the number of trees merged, not the other counters or the
// trees' hash.
func fleetPass(jobs []parsed) (float64, fleetCounts, []string) {
	var dispatches, heartbeats atomic.Int64
	var coord *dist.Coordinator
	var peers []dist.WorkerClient
	var workers []*dist.Worker
	for i := 0; i < 2; i++ {
		name := fmt.Sprintf("w%d", i)
		w := dist.NewWorker(dist.WorkerConfig{Name: name, Threads: 1,
			Dial: func(string) dist.CoordinatorClient {
				return countingCoordinator{&dist.LocalCoordinatorClient{C: coord}, &heartbeats}
			}})
		workers = append(workers, w)
		peers = append(peers, countingWorker{&dist.LocalWorkerClient{WorkerName: name, W: w}, &dispatches})
	}
	coord = dist.NewCoordinator(dist.Config{Peers: peers, Threads: 1})
	defer func() {
		for _, w := range workers {
			w.Shutdown()
		}
	}()

	var problems []string
	runtime.GC()
	t0 := time.Now()
	for i := range jobs {
		u := &jobs[i]
		var trees int64
		res, err := coord.Run(context.Background(), fmt.Sprintf("bench-%d", i), u.cons, dist.RunOptions{
			CollectTrees: true, InitialTree: -1, OnTree: func(string) { trees++ },
		})
		if err != nil {
			problems = append(problems, u.in.Name+": "+err.Error())
			continue
		}
		if want := u.exp.Counters.StandTrees; res.Stop != search.StopExhausted || res.Counters.StandTrees != want || trees != want {
			problems = append(problems, fmt.Sprintf("%s: stop %v, stand of %d trees, %d merged, oracle %d",
				u.in.Name, res.Stop, res.Counters.StandTrees, trees, want))
		}
	}
	return time.Since(t0).Seconds(), fleetCounts{dispatches.Load(), heartbeats.Load()}, problems
}
