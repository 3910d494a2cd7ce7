package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"gentrius"
	"gentrius/internal/gen"
	"gentrius/internal/obs"
	"gentrius/internal/parallel"
	"gentrius/internal/search"
	"gentrius/internal/service"
	"gentrius/internal/terrace"
	"gentrius/internal/tree"
)

// The sinks keep the compiler from dropping TerraceClone's and
// StaticIndexNew's results.
var (
	cloneSink *terrace.Terrace
	indexSink *tree.StaticIndex
)

// firstFrame steps a fresh engine over ds to the first state with the given
// number of taxa missing — 1: a final frame, 2: a penultimate one, 3: an
// antepenultimate one — and returns an engine on that state and the frame of
// the taxon chosen there, as the one-frame stack Reset takes. The engine books
// insertions on the Terrace's overlay, so the state is made on a Terrace of
// its own, by inserting the walk's path. The walk looks ahead of the
// second-to-last taxon, so the final frame is made by hand: that taxon
// inserted on its frame's first branch, as the paper's machine does first.
func firstFrame(b *testing.B, ds *gen.Dataset, missing int) (*search.Engine, []search.FrameSnapshot) {
	tr, stack, err := walkTo(ds, max(missing, 2))
	if err != nil {
		b.Fatal(err)
	}
	frame := stack[len(stack)-1:]
	if missing == 1 {
		y := frame[0]
		tr.ExtendTaxon(y.Taxon, y.Branches[0])
		for _, z := range tr.MissingTaxa() {
			if !tr.Agile().HasTaxon(z) {
				frame = []search.FrameSnapshot{{Taxon: z, Branches: tr.AllowedBranches(z)}}
			}
		}
	}
	return search.NewEngine(tr), frame
}

// walkTo steps a counting engine over ds to the first state with the given
// number of taxa missing, and returns a Terrace of that state — the walk's
// path inserted for real, as the engine books what it can — and the walk's
// stack.
func walkTo(ds *gen.Dataset, missing int) (*terrace.Terrace, []search.FrameSnapshot, error) {
	initial := search.ChooseInitialTree(ds.Constraints)
	walked, err := terrace.New(ds.Constraints, initial)
	if err != nil {
		return nil, nil, err
	}
	walk := search.NewEngine(walked)
	for walk.RemainingTaxa() != missing {
		if walk.Step() == search.EvDone {
			return nil, nil, fmt.Errorf("no state with %d taxa missing in the stand", missing)
		}
	}
	tr, err := terrace.New(ds.Constraints, initial)
	if err != nil {
		return nil, nil, err
	}
	for _, st := range walk.Path(nil) {
		tr.ExtendTaxon(st.Taxon, st.Edge)
	}
	return tr, walk.SnapshotFrames(nil), nil
}

// extraBenches registers benchmarks that only exist on newer revisions of
// the engine; a baseline produced before a benchmark existed simply lacks
// its row, and -compare marks it "(new)".
func extraBenches(add func(name string, f func(b *testing.B)),
	ds *gen.Dataset, tr *terrace.Terrace, taxa []int, branches [][]int32) {

	// The incremental admissible-count query (PR 2): steady-state cost of
	// the dynamic insertion heuristic's per-taxon lookup.
	// The word-parallel admissibility kernel (PR 7): materialising the
	// admissible branch set by ANDing constraint preimage lanes, 64 edges
	// per word operation, into a reused buffer — the pushFrame hot path.
	add("TerraceAppendAllowed", func(b *testing.B) {
		half := len(taxa) / 2
		for j := 0; j < half; j++ {
			tr.ExtendTaxon(taxa[j], branches[j][0])
		}
		rest := taxa[half:]
		buf := make([]int32, 0, 4096)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf = tr.AppendAllowedBranches(buf[:0], rest[i%len(rest)])
		}
		b.StopTimer()
		for tr.Depth() > 0 {
			tr.RemoveTaxon()
		}
	})

	add("TerracePendingCount", func(b *testing.B) {
		half := len(taxa) / 2
		for j := 0; j < half; j++ {
			tr.ExtendTaxon(taxa[j], branches[j][0])
		}
		rest := taxa[half:]
		for _, x := range rest {
			tr.PendingCount(x) // warm the cache: measure the steady state
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tr.PendingCount(rest[i%len(rest)])
		}
		b.StopTimer()
		for tr.Depth() > 0 {
			tr.RemoveTaxon()
		}
	})

	// Shard-tagged span emission (PR 10): a fleet worker's engine events
	// flow through a With-derived recorder carrying {trace, job, node} tags
	// and {shard, epoch} fields. The derived path must cost the same as the
	// bare one — fixed context serialized from prebuilt slices, 0 allocs.
	add("ShardTaggedEmit", func(b *testing.B) {
		r := obs.NewRecorder(io.Discard, nil).With(
			[]obs.SField{obs.S("trace", "eab773018dcb2347"),
				obs.S("job", "bench"), obs.S("node", "w0")},
			obs.F("shard", 1), obs.F("epoch", 2))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.EmitAtTagged(int64(i), obs.EvTaskSubmit, 3,
				nil, obs.F("task", int64(i)), obs.F("parent", 7))
		}
		b.StopTimer()
		if err := r.Flush(); err != nil {
			b.Fatal(err)
		}
	})

	// TreeNewick is one rendering of one 129-taxon stand tree (the first of
	// empirical dataset 23, the benchmark's stream-file stand) through the
	// one-shot Tree.Newick. Its allocs/op is the host-independent number
	// -compare -max-regress gates: the string and nothing else. The engine's
	// own emission is the SerialEngineEmit pair (emitStrings).

	// Final frames (PR 21): one op is one final frame of the reference stand —
	// its first, re-aimed at and consumed over and over on the state it hangs
	// off — counted only, and rendered into a block nobody reads. Neither
	// allocates, and neither inserts the taxon.
	for _, emit := range []bool{false, true} {
		name := "FinalFrameCount"
		if emit {
			name = "FinalFrameEmit"
		}
		add(name, func(b *testing.B) {
			eng, frame := firstFrame(b, ds, 1)
			if emit {
				eng.OnTrees = func(block []byte, _ int) []byte { return block }
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := eng.Reset(frame); err != nil {
					b.Fatal(err)
				}
				if eng.Step() != search.EvTreeFound {
					b.Fatal("the frame is not final")
				}
			}
			w := eng.Work()
			trees := float64(len(frame[0].Branches))
			b.ReportMetric(trees, "trees/frame")
			b.ReportMetric(float64(w.Extends), "extend-calls")
			b.ReportMetric(float64(w.Booked)/float64(b.N), "booked")
			if emit {
				b.ReportMetric(float64(w.Emit.Walked+w.Emit.Copied)/float64(b.N)/trees, "B/tree")
			}
		})
	}

	// Penultimate frames (PR 25): one op is one frame of the reference stand
	// with two taxa missing — its first, re-aimed at and answered branch by
	// branch, a Step call each, from the counts the Terrace keeps of the last
	// taxon — counted only, and (PR 29) rendered into a block nobody reads:
	// one walk of the frame's state at the Reset, a base derived from it per
	// branch, the trees cut from that. Nothing is inserted, and nothing
	// allocated.
	for _, emit := range []bool{false, true} {
		name := "PenultimateFrameCount"
		if emit {
			name = "PenultimateFrameEmit"
		}
		add(name, func(b *testing.B) {
			eng, frame := firstFrame(b, ds, 2)
			if emit {
				eng.OnTrees = func(block []byte, _ int) []byte { return block }
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := eng.Reset(frame); err != nil {
					b.Fatal(err)
				}
				for ev := eng.Step(); ev != search.EvDone; ev = eng.Step() {
					if ev != search.EvLookAhead {
						b.Fatalf("a branch of the frame was not looked ahead of: event %d", ev)
					}
				}
			}
			w := eng.Work()
			trees := float64(eng.Counters().StandTrees) / float64(b.N)
			b.ReportMetric(float64(len(frame[0].Branches)), "branches/frame")
			b.ReportMetric(trees, "trees/frame")
			b.ReportMetric(float64(w.Extends), "extend-calls")
			b.ReportMetric(float64(w.Booked)/float64(b.N), "booked")
			if emit {
				b.ReportMetric(float64(w.Emit.Walked)/float64(b.N)/trees, "walked-B/tree")
				b.ReportMetric(float64(w.Emit.Copied)/float64(b.N)/trees, "copied-B/tree")
			}
		})
	}

	// Antepenultimate frames: one op is the reference stand's first frame
	// with three taxa missing, re-aimed at and stepped to its end, counted
	// only. Each branch's insertion is booked on the Terrace's overlay, not
	// made; the penultimate frame under it is listed from the overlay's counts
	// and answered branch by branch like PenultimateFrameCount's; the removal
	// touches nothing. No ExtendTaxon call, and nothing allocated.
	add("AntepenultimateFrameCount", func(b *testing.B) {
		eng, frame := firstFrame(b, ds, 3)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := eng.Reset(frame); err != nil {
				b.Fatal(err)
			}
			for eng.Step() != search.EvDone {
			}
		}
		w, branches := eng.Work(), len(frame[0].Branches)
		if w.Extends != 0 || w.Booked != int64(b.N*branches) {
			b.Fatalf("%d ExtendTaxon calls and %d insertions booked for %d frames of %d branches", w.Extends, w.Booked, b.N, branches)
		}
		b.ReportMetric(float64(branches), "branches/frame")
		b.ReportMetric(float64(eng.Counters().StandTrees)/float64(b.N), "trees/frame")
		b.ReportMetric(float64(w.Extends), "extend-calls")
		b.ReportMetric(float64(w.Booked)/float64(b.N), "booked")
	})

	// The spool (PR 20): the same stand as one serial job of a service.Manager
	// on a fresh data directory — what SerialEngineEmit does plus one
	// AppendBlock per block and the job's three journal records — with nobody
	// following. us/tree against SerialEngineEmit's ns/op over the same
	// stand-trees is what spooling a tree costs.
	add("SpoolAppend", func(b *testing.B) {
		dir, err := os.MkdirTemp("", "benchreport-spool")
		if err != nil {
			b.Fatal(err)
		}
		defer os.RemoveAll(dir)
		mgr, err := service.New(service.Config{Workers: 1, DataDir: dir})
		if err != nil {
			b.Fatal(err)
		}
		defer mgr.Shutdown(context.Background()) //nolint:errcheck // nothing runs by then
		req := service.JobRequest{MaxTrees: -1, MaxStates: -1, MaxTimeSeconds: -1}
		for _, c := range ds.Constraints {
			req.Trees = append(req.Trees, c.Newick())
		}
		var trees int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			job, err := mgr.Submit(req)
			if err != nil {
				b.Fatal(err)
			}
			<-job.Done()
			st := job.Status()
			if st.State != service.StateDone || st.TreesSpooled != st.StandTrees {
				b.Fatalf("job %+v", st)
			}
			trees = st.TreesSpooled
		}
		b.ReportMetric(b.Elapsed().Seconds()*1e6/float64(b.N)/float64(trees), "us/tree")
		b.ReportMetric(float64(trees), "stand-trees")
	})

	// Run set-up (PR 15): building the search state from the constraints,
	// once per run, and copying it, once per worker — on simulated dataset 8,
	// the largest of the benchmark's count-many stands (265 taxa, 15 loci).
	// Both are single-goroutine and allocate the same on every host.
	big := gen.Generate(gen.Default(gen.RegimeSimulated), 8).Constraints
	bigIdx := search.ChooseInitialTree(big)
	// TerraceNew releases nothing, so every New after the first allocates all
	// its storage: the cost of a process's first stand. TerraceRenew releases
	// each Terrace before the next New, as the drivers do at their exit: the
	// cost of every later one.
	add("TerraceNew", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := terrace.New(big, bigIdx); err != nil {
				b.Fatal(err)
			}
		}
	})
	add("TerraceRenew", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tr, err := terrace.New(big, bigIdx)
			if err != nil {
				b.Fatal(err)
			}
			tr.Release()
		}
	})
	// TerraceClone releases nothing either: a worker's first copy of the
	// state, on storage of its own. TerraceReclone releases each clone before
	// the next, as the drivers do at their exit: what a worker's copy costs
	// a warm process.
	add("TerraceClone", func(b *testing.B) {
		proto, err := terrace.New(big, bigIdx)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cloneSink = proto.Clone()
		}
	})
	add("TerraceReclone", func(b *testing.B) {
		proto, err := terrace.New(big, bigIdx)
		if err != nil {
			b.Fatal(err)
		}
		proto.Clone().Release()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			proto.Clone().Release()
		}
	})

	// Constraint input (PR 19): the same 15 constraint trees as the text of
	// their .trees file through gentrius.ReadTrees — scanner, reader, the
	// fit to the finished universe — and the LCA index terrace.New builds
	// per constraint, on the largest of them. Both allocate a fixed number
	// of times per tree, whatever its size.
	var text bytes.Buffer
	if err := gentrius.WriteTrees(&text, big); err != nil {
		panic(err)
	}
	add("ReadTrees", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := gentrius.ReadTrees(bytes.NewReader(text.Bytes()), nil); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(big)), "trees")
		b.ReportMetric(float64(text.Len()), "bytes")
	})
	// A small stand's set-up (PR 56): search.Start — terrace.New and the
	// prefix walk to the initial split — and Release, as a serial run makes
	// them, over the sixteen stands of the benchmark's count-many workload
	// read back from their Newick text, as its runs read them. forced counts
	// the prefixes' insertions and prefix-queries their count queries
	// (Setup.PrefixQueries), both exact gates.
	var small [][]*tree.Tree
	for _, idx := range standPairs[0].idx {
		var text bytes.Buffer
		if err := gentrius.WriteTrees(&text, gen.Generate(gen.Default(gen.RegimeSimulated), idx).Constraints); err != nil {
			panic(err)
		}
		cons, _, err := gentrius.ReadTrees(&text, nil)
		if err != nil {
			panic(err)
		}
		small = append(small, cons)
	}
	add("StartSmallStands", func(b *testing.B) {
		forced, queries := 0, int64(0)
		for i := 0; i < b.N; i++ {
			forced, queries = 0, 0
			for _, cons := range small {
				su, err := (&search.Options{InitialTree: -1}).Start(cons)
				if err != nil {
					b.Fatal(err)
				}
				forced += len(su.Frontier.Prefix)
				queries += su.PrefixQueries
				su.Release()
			}
		}
		b.ReportMetric(float64(forced), "forced")
		b.ReportMetric(float64(queries), "prefix-queries")
	})
	add("StaticIndexNew", func(b *testing.B) {
		widest := slices.MaxFunc(big, func(x, y *tree.Tree) int { return x.NumLeaves() - y.NumLeaves() })
		for i := 0; i < b.N; i++ {
			indexSink = tree.NewStaticIndex(widest)
		}
		b.ReportMetric(float64(widest.NumLeaves()), "taxa")
	})

	add("TreeNewick", func(b *testing.B) {
		emp := gen.Generate(gen.Default(gen.RegimeEmpirical), 23)
		res, err := search.Run(emp.Constraints, search.Options{
			InitialTree: -1, CollectTrees: true, Limits: search.Limits{MaxTrees: 1}})
		if err != nil || len(res.Trees) == 0 {
			b.Fatalf("no stand tree to render: %v", err)
		}
		t := tree.MustParse(res.Trees[0], emp.Constraints[0].Taxa())
		written := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			written += len(t.Newick())
		}
		b.ReportMetric(float64(t.NumLeaves()), "taxa")
		b.ReportMetric(float64(written)/float64(b.N), "bytes")
	})
}

// standPair is a set of stands enumerated back to back by search.Run and by
// the pool at two threads, the two passes interleaved (pairRows). The pool's
// row carries t2/serial, which -compare gates (ratioMetrics).
type standPair struct {
	name string // rows Serial<name>Stands and Pool<name>Stands
	idx  []int  // datasets of the paper-shaped simulated corpus
}

var standPairs = []standPair{
	// What asking for a second thread costs where there is nothing for it to
	// do (PR 24): the sixteen stands of the benchmark's count-many workload
	// (eleven have under ten trees, the largest 10 125). ROADMAP item 2 wants
	// the ratio at 1.05.
	{"Small", []int{0, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}},
	// What it gains where there is (PR 25, ROADMAP item 2(d)): the one stand
	// of count-deep, 418 126 states and 1 670 625 trees. The ratio is the
	// inverse of the benchmark's parallel.speedup_t2, and only comparable
	// between hosts that run two threads at once.
	{"Deep", []int{104}},
}

func (sp standPair) run(benchtime string) (serial, pool BenchResult, err error) {
	var stands [][]*tree.Tree
	for _, idx := range sp.idx {
		stands = append(stands, gen.Generate(gen.Default(gen.RegimeSimulated), idx).Constraints)
	}
	unlimited := search.Limits{MaxTrees: -1, MaxStates: -1, MaxTime: -1}
	runSerial := func() (err error) {
		for _, cons := range stands {
			if _, e := search.Run(cons, search.Options{InitialTree: -1, Limits: unlimited}); e != nil && err == nil {
				err = e
			}
		}
		return err
	}
	runPool := func() (err error) {
		for _, cons := range stands {
			if _, e := parallel.Run(cons, search.Options{Threads: 2, InitialTree: -1, Limits: unlimited}); e != nil && err == nil {
				err = e
			}
		}
		return err
	}
	serial.Name, pool.Name = "Serial"+sp.name+"Stands", "Pool"+sp.name+"Stands"
	ratio, err := pairRows(benchtime, &serial, &pool, runSerial, runPool)
	pool.Metrics = map[string]float64{"t2/serial": ratio}
	return serial, pool, err
}

// copySink keeps refStand's memmove from being optimised away.
var copySink []byte

// refStand is the reference stand's in-run pairs: EmitRefStand renders it
// into blocks nobody reads (SerialEngineEmit's pass), StreamRefStand serves it
// as a finished job's tree stream, SpoolRefStand reads that job's spool
// (serveStand). -compare gates (ratioMetrics) emit/stream and stream/spool,
// whose sides share the host's compute and memory; emit/copy, over an
// in-cache memmove of the same volume (CopyRefStand), is reported, not gated.
// The stand's labels are plain, so its stream frames the trees without
// reading them; StreamEscapedRefStand serves the stand with one label
// holding '&', whose every tree the stream scans and escapes, and carries
// escaped/plain against StreamRefStand, reported, not gated.
func refStand(ds *gen.Dataset, benchtime string) (rows []BenchResult, err error) {
	var volume int
	var block []byte
	if _, err = search.Run(ds.Constraints, search.Options{InitialTree: -1, OnTrees: func(b []byte, _ int) {
		volume += len(b)
		if len(b) > len(block) {
			block = append(block[:0], b...)
		}
	}}); err != nil {
		return nil, err
	}
	copySink = make([]byte, len(block))
	runCopy := func() error {
		for left := volume; left > 0; left -= len(block) {
			copy(copySink, block[:min(left, len(block))])
		}
		return nil
	}
	runEmit := func() error {
		_, err := search.Run(ds.Constraints, search.Options{InitialTree: -1, OnTrees: func([]byte, int) {}})
		return err
	}
	var trees, escapedTrees []string
	amp := ds.Constraints[0].Taxa().Name(0)
	label := regexp.MustCompile(`([(,])` + regexp.QuoteMeta(amp) + `([,);])`)
	for _, c := range ds.Constraints {
		nw := c.Newick()
		esc := label.ReplaceAllString(nw, "${1}"+amp+"&${2}")
		if c.HasTaxon(0) == (esc == nw) {
			return nil, fmt.Errorf("relabelling %q in %q", amp, nw)
		}
		trees, escapedTrees = append(trees, nw), append(escapedTrees, esc)
	}
	runStream, runSpool, stop, err := serveStand(trees)
	if err != nil {
		return nil, err
	}
	defer stop()
	runEscaped, _, stopEscaped, err := serveStand(escapedTrees)
	if err != nil {
		return nil, err
	}
	defer stopEscaped()
	emit, stream := BenchResult{Name: "EmitRefStand"}, BenchResult{Name: "StreamRefStand"}
	cp, spool := BenchResult{Name: "CopyRefStand"}, BenchResult{Name: "SpoolRefStand"}
	emitCopy, err := pairRows(benchtime, &cp, &emit, runCopy, runEmit)
	if err != nil {
		return nil, err
	}
	emitStream, err := pairRows(benchtime, &stream, &emit, runStream, runEmit)
	if err != nil {
		return nil, err
	}
	streamSpool, err := pairRows(benchtime, &spool, &stream, runSpool, runStream)
	if err != nil {
		return nil, err
	}
	escaped := BenchResult{Name: "StreamEscapedRefStand"}
	escapedPlain, err := pairRows(benchtime, &stream, &escaped, runStream, runEscaped)
	emit.Metrics = map[string]float64{"emit/copy": emitCopy, "emit/stream": emitStream, "stand-MB": float64(volume) / 1e6}
	stream.Metrics = map[string]float64{"stream/spool": streamSpool}
	escaped.Metrics = map[string]float64{"escaped/plain": escapedPlain}
	return []BenchResult{cp, spool, emit, stream, escaped}, err
}

// serveStand is the tree stream's pass: a service.Manager on a fresh data
// directory runs the constraint trees as one job to its end, and each pass
// serves that job's GET /jobs/{id}/trees through RegisterRoutes into an
// httptest.ResponseRecorder, with no network — the spool's reads, the NDJSON
// records and the recorder's writes of every tree. read reads the job's
// spool file in the stream's 64 KiB chunks. stop shuts it down.
func serveStand(trees []string) (pass, read func() error, stop func(), err error) {
	dir, err := os.MkdirTemp("", "benchreport-stream")
	if err != nil {
		return nil, nil, nil, err
	}
	mgr, err := service.New(service.Config{Workers: 1, DataDir: dir})
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, nil, err
	}
	stop = func() {
		mgr.Shutdown(context.Background()) //nolint:errcheck // nothing runs by then
		os.RemoveAll(dir)
	}
	job, err := mgr.Submit(service.JobRequest{Trees: trees, MaxTrees: -1, MaxStates: -1, MaxTimeSeconds: -1})
	if err != nil {
		stop()
		return nil, nil, nil, err
	}
	<-job.Done()
	st := job.Status()
	if st.State != service.StateDone || st.TreesSpooled != st.StandTrees {
		stop()
		return nil, nil, nil, fmt.Errorf("stream job %+v", st)
	}
	mux := http.NewServeMux()
	mgr.RegisterRoutes(mux)
	var body bytes.Buffer
	pass = func() error {
		body.Reset()
		rec := httptest.NewRecorder()
		rec.Body = &body
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/jobs/"+job.ID()+"/trees", nil))
		if n := bytes.Count(body.Bytes(), []byte("\n")); rec.Code != http.StatusOK || int64(n) != st.StandTrees {
			return fmt.Errorf("the stream answered %d with %d of %d trees", rec.Code, n, st.StandTrees)
		}
		return nil
	}
	chunk := make([]byte, 64<<10)
	read = func() error {
		f, err := os.Open(filepath.Join(dir, job.ID()+".trees"))
		if err != nil {
			return err
		}
		defer f.Close()
		for err == nil {
			_, err = f.Read(chunk)
		}
		if err == io.EOF {
			return nil
		}
		return err
	}
	return pass, read, stop, nil
}

// emitStrings is tree emission as an in-run pair: SerialEngineEmit is
// SerialEngine with a no-op OnTrees, so its allocs/op is SerialEngine's plus a
// constant and the two rows of one report give the cost of rendering every
// stand tree. A tree is cut from the rendering of the state it shares with its
// final frame's others: the row reports the bytes the two-pass walk wrote and
// the bytes copied per tree, and the share of trees the writer spliced, re-cut
// or left to the full walk.
// SerialEngineEmitStrings is the same run with a no-op OnTree: one string per
// block on top, cut into the trees. It carries strings/blocks, which -compare
// gates (ratioMetrics): what asking for strings costs over asking for blocks.
func emitStrings(ds *gen.Dataset, benchtime string) (emit, strs BenchResult, err error) {
	var last *search.Result
	runEmit := func() (err error) {
		last, err = search.Run(ds.Constraints, search.Options{InitialTree: -1, OnTrees: func([]byte, int) {}})
		return err
	}
	runStrings := func() error {
		_, err := search.Run(ds.Constraints, search.Options{InitialTree: -1, OnTree: func(string) {}})
		return err
	}
	emit.Name, strs.Name = "SerialEngineEmit", "SerialEngineEmitStrings"
	ratio, err := pairRows(benchtime, &emit, &strs, runEmit, runStrings)
	if err == nil {
		emit.Metrics = workMetrics(last)
	}
	strs.Metrics = map[string]float64{"strings/blocks": ratio}
	return emit, strs, err
}

// deriveCut is the Newick writer's two operations on one base as an in-run
// pair, on the reference stand's first state with two taxa missing:
// WriterCut cuts the tree with one of them on each edge from the state's
// base (NewickWriter.AppendWith), WriterDerive derives the base with the other
// one there and pops it (Derive, Pop), as many times. WriterDerive carries
// derive/cut, what one derivation costs in cuts: reported, not gated.
func deriveCut(ds *gen.Dataset, benchtime string) (cut, derive BenchResult, err error) {
	tr, _, err := walkTo(ds, 2)
	if err != nil {
		return cut, derive, err
	}
	ag := tr.Agile()
	var nw tree.NewickWriter
	if !nw.SetBase(ag) {
		return cut, derive, fmt.Errorf("the writer took no base of the state")
	}
	var x []int
	for _, y := range tr.MissingTaxa() {
		if !ag.HasTaxon(y) {
			x = append(x, y)
		}
	}
	if len(x) != 2 {
		return cut, derive, fmt.Errorf("%d taxa missing, not two", len(x))
	}
	const sweeps = 20
	edges := int32(ag.NumEdges())
	var buf []byte
	runCut := func() error {
		for range sweeps {
			for e := range edges {
				buf = nw.AppendWith(buf[:0], x[0], e)
			}
		}
		return nil
	}
	runDerive := func() error {
		for range sweeps {
			for e := range edges {
				nw.Derive(x[1], e)
				nw.Pop()
			}
		}
		return nil
	}
	cut.Name, derive.Name = "WriterCut", "WriterDerive"
	ratio, err := pairRows(benchtime, &cut, &derive, runCut, runDerive)
	derive.Metrics = map[string]float64{"derive/cut": ratio}
	return cut, derive, err
}

// pairRows runs two passes by turns in one process, and folds each into its
// row: the floor over the rounds — -benchtime's count, or as many as fit its
// duration, twenty at least — and the least allocations of them. It returns
// the median over the rounds of b's pass ÷ a's, two passes a few milliseconds
// apart, which is what every in-run ratio (ratioMetrics) is: a neighbour's
// burst moves one round's ratio and not the result, where the ratio of the
// two floors moves with whichever side caught the quietest moment (0.96 to
// 1.19 over repeats of t2/serial on a shared two-core host where the median
// read 0.99 to 1.07).
func pairRows(benchtime string, a, b *BenchResult, passA, passB func() error) (ratio float64, err error) {
	rounds, budget := 20, time.Second
	if n, isCount := strings.CutSuffix(benchtime, "x"); isCount {
		if rounds, err = strconv.Atoi(n); err != nil {
			return 0, err
		}
		budget = 0
	} else if budget, err = time.ParseDuration(benchtime); err != nil {
		return 0, err
	}
	// pass runs one of the two, folds it into its row and returns its time.
	pass := func(row *BenchResult, run func() error) float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		if e := run(); e != nil && err == nil {
			err = e
		}
		ns := float64(time.Since(start).Nanoseconds())
		runtime.ReadMemStats(&after)
		allocs, bytes := int64(after.Mallocs-before.Mallocs), int64(after.TotalAlloc-before.TotalAlloc)
		if row.Iterations == 0 || ns < row.NsPerOp {
			row.NsPerOp = ns
		}
		if row.Iterations == 0 || allocs < row.AllocsPerOp {
			row.AllocsPerOp, row.BytesPerOp = allocs, bytes
		}
		row.Iterations++
		return ns
	}
	var ratios []float64
	for start := time.Now(); err == nil && (len(ratios) < rounds || time.Since(start) < budget); {
		var x, y float64
		if len(ratios)%2 == 0 {
			x, y = pass(a, passA), pass(b, passB)
		} else {
			y, x = pass(b, passB), pass(a, passA)
		}
		ratios = append(ratios, y/x)
	}
	if err != nil {
		return 0, err
	}
	slices.Sort(ratios)
	return ratios[len(ratios)/2], nil
}
