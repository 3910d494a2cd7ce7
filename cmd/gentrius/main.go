// Command gentrius enumerates a phylogenetic stand from either a file of
// incomplete Newick constraint trees (one per line) or a complete species
// tree plus a presence–absence matrix.
//
// Usage:
//
//	gentrius -trees constraints.nwk [flags]
//	gentrius -species tree.nwk -pam matrix.pam [flags]
//
// Flags mirror the paper's run configuration: -threads selects the parallel
// work-stealing engine, and -max-trees / -max-states / -max-time are the
// three stopping rules.
//
// Observability flags: -metrics-addr serves Prometheus metrics and pprof
// over HTTP for the duration of the run; -trace-out writes a JSONL
// scheduler event trace; -progress prints live counters and throughput to
// stderr on an interval; -json emits the full machine-readable result.
//
// Long runs are interruptible: Ctrl-C (SIGINT) or SIGTERM cancels the
// enumeration cleanly (stop reason "cancelled"); with -checkpoint FILE a
// run interrupted that way — or stopped by a rule — writes a resumable
// snapshot, and -resume FILE continues it later on the same input,
// reproducing exactly the counters of an uninterrupted run. This works at
// any -threads count: a parallel run quiesces its workers at task
// boundaries and snapshots the task frontier, and the snapshot resumes on
// any thread count (snapshot at -threads 4, resume at -threads 8). Adding
// -checkpoint-interval D persists the snapshot on that wall-clock cadence
// (atomically, with a .bak rotation), so even a hard crash is resumable. A
// failed -resume explains itself: corrupt files, version mismatches (an
// older release's version-1 checkpoint among them) and wrong inputs each get
// a distinct hint.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"gentrius"
	"gentrius/internal/faultinject"
	"gentrius/internal/obs"
	"gentrius/internal/search"
)

func main() {
	var (
		treesPath   = flag.String("trees", "", "constraint trees: one Newick per line, or a NEXUS file")
		speciesPath = flag.String("species", "", "file with a complete species tree (Newick)")
		pamPath     = flag.String("pam", "", "presence-absence matrix file (use with -species)")
		threads     = flag.Int("threads", 1, "worker count (>1 enables the parallel engine)")
		maxTrees    = flag.Int64("max-trees", 0, "stopping rule 1: max stand trees (0 = default 1e6, <0 = unlimited)")
		maxStates   = flag.Int64("max-states", 0, "stopping rule 2: max intermediate states (0 = default 1e7, <0 = unlimited)")
		maxTime     = flag.Duration("max-time", 0, "stopping rule 3: max wall time (0 = default 168h)")
		initial     = flag.Int("initial", gentrius.UseInitialTreeHeuristic, "initial tree index (-1 = heuristic)")
		outPath     = flag.String("out", "", "write the stand trees (Newick, one per line) to this file")
		quiet       = flag.Bool("q", false, "print only the stand size")
		summary     = flag.Bool("summary", false, "after enumeration, print a stand diversity summary (RF distances, consensus trees); requires the stand to fit in memory")
		metricsAddr = flag.String("metrics-addr", "", "serve /metrics (Prometheus) and /debug/pprof on this address for the duration of the run")
		traceOut    = flag.String("trace-out", "", "write a JSONL scheduler event trace to this file")
		progress    = flag.Duration("progress", 0, "print live counters and throughput to stderr on this interval (e.g. 5s; 0 = off)")
		jsonOut     = flag.Bool("json", false, "emit the full result (counters, stop reason, tasks stolen, per-worker breakdown) as JSON on stdout")
		ckptPath    = flag.String("checkpoint", "", "write a resumable checkpoint to this file when the run is interrupted (Ctrl-C) or stopped by a rule; works at any -threads count")
		ckptIvl     = flag.Duration("checkpoint-interval", 0, "with -checkpoint: also write the checkpoint on this wall-clock cadence, so a crash (not just Ctrl-C) is resumable (works at any -threads count; parallel runs briefly quiesce per snapshot)")
		resumePath  = flag.String("resume", "", "resume a run from a checkpoint written by -checkpoint (requires the same input; any -threads count)")
	)
	flag.Parse()

	cons, err := loadConstraints(*treesPath, *speciesPath, *pamPath)
	if err != nil {
		fatal(err)
	}
	fault, err := faultinject.FromEnv()
	if err != nil {
		fatal(fmt.Errorf("%s: %w", faultinject.EnvVar, err))
	}
	opt := gentrius.Options{
		Threads:      *threads,
		MaxTrees:     *maxTrees,
		MaxStates:    *maxStates,
		MaxTime:      *maxTime,
		InitialTree:  *initial,
		CollectTrees: *summary,
		Fault:        fault,
	}
	if *ckptIvl > 0 && *ckptPath == "" {
		fatal(fmt.Errorf("-checkpoint-interval requires -checkpoint FILE"))
	}
	if *ckptPath != "" || *resumePath != "" {
		policy := &gentrius.CheckpointPolicy{
			OnStop:   *ckptPath != "",
			Interval: *ckptIvl,
		}
		if *ckptIvl > 0 {
			policy.Sink = func(cp *gentrius.Checkpoint) {
				// Atomic write with .bak rotation: a crash mid-write leaves
				// the previous snapshot readable.
				if err := cp.WriteFile(*ckptPath); err != nil {
					fmt.Fprintln(os.Stderr, "gentrius: checkpoint:", err)
				}
			}
		}
		if *resumePath != "" {
			cp, err := gentrius.ReadCheckpointFile(*resumePath)
			if err != nil {
				fatal(checkpointHint(err))
			}
			policy.Resume = cp
		}
		opt.Checkpoint = policy
	}
	// Ctrl-C / SIGTERM cancel the enumeration cleanly instead of killing
	// the process: the run returns with stop reason "cancelled" (and, with
	// -checkpoint, a resumable snapshot). A second signal kills.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	start := time.Now()

	// Observability: any of the three flags attaches a metric set; the
	// trace recorder is separate so each costs nothing when off. The
	// progress reporter additionally attaches a search-space estimator so
	// its ETA works with no limits set.
	var metrics *obs.SchedMetrics
	var registry *obs.Registry
	var estimator *obs.Estimator
	if *metricsAddr != "" || *progress > 0 || *traceOut != "" {
		registry = obs.NewRegistry()
		metrics = obs.NewSchedMetrics(registry)
		opt.Obs = &gentrius.ObsSink{Metrics: metrics}
		if *progress > 0 {
			estimator = &obs.Estimator{}
			opt.Obs.Estimate = estimator
		}
	}
	if *traceOut != "" {
		tf, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		rec := obs.NewRecorder(tf, obs.WallClock(start))
		opt.Obs.Trace = rec
		defer func() {
			if err := rec.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "gentrius: trace:", err)
			}
		}()
	}
	if *metricsAddr != "" {
		srv, bound, err := obs.StartServer(*metricsAddr, registry)
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "gentrius: serving /metrics, /debug/pprof on %s\n", bound)
	}
	if *progress > 0 {
		lim := search.Limits{MaxTrees: *maxTrees, MaxStates: *maxStates}.Normalize()
		stop := obs.StartProgress(os.Stderr, *progress,
			obs.ProgressFromMetrics(metrics, estimator, lim.MaxTrees, lim.MaxStates))
		defer stop()
	}

	var outFile *os.File
	var out *bufio.Writer
	if *outPath != "" {
		outFile, err = os.Create(*outPath)
		if err != nil {
			fatal(err)
		}
		// A bufio.Writer keeps its first write error and returns it from
		// every later call, Flush included, so the callback need not look.
		// A block is the file's next lines as they are: one Write each.
		out = bufio.NewWriterSize(outFile, 64<<10)
		opt.OnTrees = func(block []byte, _ int) { out.Write(block) }
	}
	res, err := gentrius.EnumerateStandContext(ctx, cons, opt)
	// Flush here, not in a defer: every fatal below exits past the defers,
	// and an interrupted run's partial stand must reach the disk as well.
	var outErr error
	if out != nil {
		outErr = out.Flush()
		if cerr := outFile.Close(); outErr == nil {
			outErr = cerr
		}
	}
	if err != nil {
		fatal(checkpointHint(err))
	}
	if outErr != nil {
		fatal(fmt.Errorf("-out: the stand file is incomplete: %w", outErr))
	}
	if res.Checkpoint != nil && *ckptPath != "" {
		if err := res.Checkpoint.WriteFile(*ckptPath); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "gentrius: checkpoint written to %s (resume with -resume %s)\n",
			*ckptPath, *ckptPath)
	}
	if *jsonOut {
		if err := writeJSON(os.Stdout, cons, res, opt.Obs); err != nil {
			fatal(err)
		}
		return
	}
	if *quiet {
		fmt.Println(res.StandTrees)
		return
	}
	fmt.Printf("constraint trees:    %d\n", len(cons))
	fmt.Printf("initial tree index:  %d\n", res.InitialIndex)
	fmt.Printf("threads:             %d\n", res.Threads)
	fmt.Printf("stand trees:         %d\n", res.StandTrees)
	fmt.Printf("intermediate states: %d\n", res.IntermediateStates)
	fmt.Printf("dead ends:           %d\n", res.DeadEnds)
	fmt.Printf("stop reason:         %v\n", res.Stop)
	if res.Threads > 1 {
		fmt.Printf("tasks stolen:        %d\n", res.TasksStolen)
	}
	fmt.Printf("elapsed (engine):    %v\n", res.Elapsed.Round(time.Millisecond))
	fmt.Printf("elapsed (total):     %v\n", time.Since(start).Round(time.Millisecond))
	if !res.Complete() {
		fmt.Println("note: a stopping rule fired; the stand size is a lower bound")
	}
	if *summary && len(res.Trees) > 0 {
		taxa := cons[0].Taxa()
		sum, err := gentrius.SummarizeStand(taxa, res.Trees, 2000)
		if err != nil {
			fatal(err)
		}
		fmt.Println()
		fmt.Printf("stand diversity (RF over %d pairs): min %.0f  mean %.1f  max %.0f  (diameter %d)\n",
			sum.PairsSampled, sum.RFMin, sum.RFMean, sum.RFMax, sum.MaxPossibleRF)
		fmt.Printf("strict consensus   (%d/%d splits): %s\n", sum.StrictSplits, sum.Taxa-3, sum.StrictConsensus)
		fmt.Printf("majority consensus (%d/%d splits): %s\n", sum.MajoritySplits, sum.Taxa-3, sum.MajorityConsensus)
	}
}

func loadConstraints(treesPath, speciesPath, pamPath string) ([]*gentrius.Tree, error) {
	switch {
	case treesPath != "" && speciesPath == "" && pamPath == "":
		f, err := os.Open(treesPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		cons, _, err := gentrius.ReadTreesAuto(f)
		return cons, err
	case speciesPath != "" && pamPath != "" && treesPath == "":
		sf, err := os.Open(speciesPath)
		if err != nil {
			return nil, err
		}
		defer sf.Close()
		trees, taxa, err := gentrius.ReadTrees(sf, nil)
		if err != nil {
			return nil, err
		}
		if len(trees) != 1 {
			return nil, fmt.Errorf("species tree file must contain exactly one tree, found %d", len(trees))
		}
		pf, err := os.Open(pamPath)
		if err != nil {
			return nil, err
		}
		defer pf.Close()
		m, err := gentrius.ReadPAM(pf, taxa)
		if err != nil {
			return nil, err
		}
		if err := m.Validate(); err != nil {
			return nil, err
		}
		return m.InducedConstraints(trees[0], 4)
	default:
		return nil, fmt.Errorf("provide either -trees, or -species together with -pam (run with -h for help)")
	}
}

// jsonWorker is one worker's breakdown in the -json output.
type jsonWorker struct {
	StandTrees         int64 `json:"stand_trees"`
	IntermediateStates int64 `json:"intermediate_states"`
	DeadEnds           int64 `json:"dead_ends"`
}

// jsonResult is the -json output schema: the full enumeration result in
// machine-readable form.
type jsonResult struct {
	ConstraintTrees    int          `json:"constraint_trees"`
	InitialIndex       int          `json:"initial_tree_index"`
	Threads            int          `json:"threads"`
	StandTrees         int64        `json:"stand_trees"`
	IntermediateStates int64        `json:"intermediate_states"`
	DeadEnds           int64        `json:"dead_ends"`
	StopReason         string       `json:"stop_reason"`
	Complete           bool         `json:"complete"`
	ElapsedSeconds     float64      `json:"elapsed_seconds"`
	TasksStolen        int64        `json:"tasks_stolen"`
	PerWorker          []jsonWorker `json:"per_worker,omitempty"`
	TraceEvents        int64        `json:"trace_events,omitempty"`
}

// writeJSON emits the full result as one JSON object on w.
func writeJSON(w *os.File, cons []*gentrius.Tree, res *gentrius.Result, sink *gentrius.ObsSink) error {
	out := jsonResult{
		ConstraintTrees:    len(cons),
		InitialIndex:       res.InitialIndex,
		Threads:            res.Threads,
		StandTrees:         res.StandTrees,
		IntermediateStates: res.IntermediateStates,
		DeadEnds:           res.DeadEnds,
		StopReason:         res.Stop.String(),
		Complete:           res.Complete(),
		ElapsedSeconds:     res.Elapsed.Seconds(),
		TasksStolen:        res.TasksStolen,
		TraceEvents:        sink.Recorder().Events(),
	}
	for _, wc := range res.PerWorker {
		out.PerWorker = append(out.PerWorker, jsonWorker{
			StandTrees:         wc.StandTrees,
			IntermediateStates: wc.IntermediateStates,
			DeadEnds:           wc.DeadEnds,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// checkpointHint appends an actionable hint to the typed checkpoint errors
// so a failed -resume tells the user what to do, not just what broke.
func checkpointHint(err error) error {
	var hint string
	switch {
	case errors.Is(err, gentrius.ErrChecksum):
		hint = "the checkpoint file is corrupt (checksum mismatch); the .bak rotation next to it was already tried — re-run from scratch"
	case errors.Is(err, gentrius.ErrVersion):
		hint = "the checkpoint was written by an incompatible gentrius version (a version-1 serial frame stack is an older release's); finish the run with that release, or re-run from scratch with this binary"
	case errors.Is(err, gentrius.ErrFingerprint):
		hint = "the checkpoint belongs to a different input: pass the same constraint files in the same order as the run that wrote it"
	default:
		return err
	}
	return fmt.Errorf("%w\n  hint: %s", err, hint)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gentrius:", err)
	os.Exit(1)
}
