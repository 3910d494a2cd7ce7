// Command bench is the repository's benchmark: four workloads, six
// end-to-end metrics measured with tracing off, and a per-layer ledger
// measured by a separate traced run. See README.md in this directory for
// every name, unit and definition; BENCHMARK.json at the repository root
// holds the regression bounds.
//
//	bash bench/run.sh -workload count-deep [-seed N] [-trace 1]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is 1 when any
// operation's output differed from the serial oracle's, 2 when the run
// itself could not be carried out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"

	"gentrius"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// buildInfo records what makes two result files comparable, or visibly not.
type buildInfo struct {
	GoVersion  string `json:"go_version"`
	PGO        string `json:"pgo"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Commit     string `json:"commit"`
}

func readBuildInfo() buildInfo {
	b := buildInfo{GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		PGO: "off", Commit: os.Getenv("BENCH_COMMIT")}
	if b.Commit == "" {
		b.Commit = "unknown"
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "-pgo" {
				b.PGO = s.Value
			}
		}
	}
	return b
}

// report is one run's outcome: what is printed, and what is merged into
// out/results.json under the workload's name.
type report struct {
	Workload string            `json:"workload"`
	Seed     int64             `json:"seed"`
	Rounds   int               `json:"rounds"`
	Traced   bool              `json:"traced"`
	Build    buildInfo         `json:"build"`
	Metrics  map[string]metric `json:"metrics,omitempty"`
	Layers   map[string]metric `json:"layers,omitempty"`
	// Info holds a timed run's bookkeeping (how disturbed the host was, how
	// long the oracle took): printed, stored, but not end-to-end metrics.
	Info         map[string]metric `json:"info,omitempty"`
	OpsAttempted int               `json:"ops_attempted"`
	OpsFailed    int               `json:"ops_failed"`
	Failures     []string          `json:"failures,omitempty"`
}

// config is one run's settings.
type config struct {
	W      *workload
	Seed   int64
	Quick  bool
	OutDir string // result and span files; scratch space below it
}

// rounds is the workload's fixed round count; -quick makes it 1.
func (c *config) rounds() int {
	if c.Quick {
		return 1
	}
	return c.W.Rounds
}

// quickPin is the one dataset a -quick run uses, whatever the workload:
// corpus index 6 is a stand of about 2 k trees on 85 taxa in both regimes.
const quickPin = 6

// pins is the workload's dataset list.
func (c *config) pins() []int {
	if c.Quick {
		return []int{quickPin}
	}
	return c.W.Pins
}

// scratch returns a fresh directory for the run's temporary files. It lies
// below OutDir so that the benchmark writes nowhere outside its checkout.
func (c *config) scratch() (string, error) {
	if err := os.MkdirAll(c.OutDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(c.OutDir, "tmp-")
}

func main() {
	var (
		name   = flag.String("workload", "", "workload to run: count-deep, count-many, stream-file or serve-jobs")
		seed   = flag.Int64("seed", 1, "seed of the inputs: it decides the taxon labels")
		_      = flag.Int("seconds", 0, "accepted because the driver passes it, and ignored: a run makes its workload's fixed number of rounds")
		trace  = flag.Int("trace", 0, "1: run the traced pass and the per-layer ledger instead of the timed rounds")
		quick  = flag.Bool("quick", false, "one round on one small dataset: a smoke test, not a measurement")
		outDir = flag.String("out", filepath.Join("bench", "out"), "directory for results.json, span files and scratch space")
		aa     = flag.Int("aa", 0, "run this many sets of every workload (or of -workload) back to back and compare the set medians with the bounds in BENCHMARK.json")
		aaRuns = flag.Int("aa-runs", 5, "runs per set and workload with -aa, each on another seed")
	)
	flag.Parse()

	if *aa > 0 {
		os.Exit(runAA(*aa, *aaRuns, *outDir, *name))
	}

	w, err := findWorkload(*name)
	fatalIf(err)
	cfg := &config{W: w, Seed: *seed, Quick: *quick, OutDir: *outDir}
	var rep *report
	if *trace != 0 {
		rep, err = runTraced(cfg)
	} else {
		rep, err = runTimed(cfg)
	}
	fatalIf(err)
	rep.Build = readBuildInfo()
	fatalIf(mergeResult(cfg.OutDir, rep))
	rep.print()
	if rep.OpsFailed > 0 {
		os.Exit(1)
	}
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
}

// print writes the human-readable table and then, as the last line, the
// JSON object the driver reads.
func (r *report) print() {
	fmt.Printf("workload %s seed %d rounds %d traced %v go %s pgo %s gomaxprocs %d commit %s\n",
		r.Workload, r.Seed, r.Rounds, r.Traced, r.Build.GoVersion, r.Build.PGO, r.Build.GOMAXPROCS, r.Build.Commit)
	reported := r.Metrics
	if r.Traced {
		reported = r.Layers
	}
	names := make([]string, 0, len(reported))
	for n := range reported {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-32s %14.6g %s\n", n, reported[n].Value, reported[n].Unit)
	}
	for n, m := range r.Info {
		fmt.Printf("  (%s %.6g %s)\n", n, m.Value, m.Unit)
	}
	fmt.Printf("  operations attempted %d failed %d\n", r.OpsAttempted, r.OpsFailed)
	for _, f := range r.Failures {
		fmt.Printf("  FAILED %s\n", f)
	}
	line, err := json.Marshal(map[string]any{
		"correct":   r.OpsFailed == 0,
		"attempted": r.OpsAttempted,
		"failed":    r.OpsFailed,
		"metrics":   reported,
	})
	fatalIf(err)
	fmt.Println(string(line))
}

// mergeResult stores the report in out/results.json, one object per
// workload; a timed run replaces the workload's metrics, a traced run its
// layers.
func mergeResult(dir string, r *report) error {
	path := filepath.Join(dir, "results.json")
	all := map[string]*report{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &all); err != nil {
			all = map[string]*report{}
		}
	}
	merged := *r
	if old := all[r.Workload]; old != nil {
		if r.Traced {
			merged.Metrics = old.Metrics
		} else {
			merged.Layers = old.Layers
		}
	}
	all[r.Workload] = &merged
	data, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// setUp is the workload's set-up routine, the thing setup_s times: the
// inputs are generated and parsed, and on serve-jobs a daemon is brought up
// on a fresh directory until it answers /healthz. stop tears down what it
// started and is not part of set-up.
func (c *config) setUp(dir string) (inputs []input, stop func(), err error) {
	inputs = c.W.makeInputs(c.Seed, c.pins())
	for i := range inputs {
		if _, err := parseInput(&inputs[i]); err != nil {
			return nil, nil, err
		}
	}
	stop = func() {}
	if c.W.Kind == kindServe {
		d, err := startDaemon(dir)
		if err != nil {
			return nil, nil, err
		}
		stop = d.stop
	}
	return inputs, stop, nil
}

// parseInput reads an input's constraint text as the program does.
func parseInput(in *input) ([]*gentrius.Tree, error) {
	cons, _, err := gentrius.ReadTrees(strings.NewReader(in.text()), nil)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", in.Name, err)
	}
	return cons, nil
}
