package main

import (
	"fmt"
	"math/rand"
	"regexp"
	"strconv"
	"strings"

	"gentrius/internal/gen"
	"gentrius/internal/search"
)

// kind selects how a workload's pass drives the program.
type kind int

const (
	kindCount  kind = iota // library call, OnTree nil
	kindStream             // library call, OnTree writes each tree to a file
	kindServe              // HTTP jobs against an in-process daemon
)

// workload is one row of the benchmark's table. Datasets come from
// internal/gen's corpus (gen.Default(Regime), corpus seed 1); Pins are the
// corpus indices Match selects, in scan order, so a run never pays for the
// scan (TestPinsMatchScan re-derives them).
type workload struct {
	Name   string
	Why    string
	Kind   kind
	Regime gen.Regime
	Pins   []int
	// Match is the selection predicate over a dataset's exhaustive serial
	// run; ScanCap bounds each scanned run (a run that hits it cannot match).
	Match   func(r scanRow) bool
	ScanCap int64
	// Rounds is R: how often every variant of the workload runs. It is a
	// count, the same on every commit and every host, sized so that a run
	// takes about half a minute on the reference host.
	Rounds int
	// Cheap is how often, inside each round, the variants that take
	// milliseconds run (the first-tree probe and the set-up). A floor needs
	// samples, and where a pass is one unit those variants would otherwise
	// get only R of them; where a pass has dozens of units they already get
	// R per unit and cost as much as a pass, so Cheap is 1.
	Cheap int
}

// scanRow is what the predicate scan knows about one corpus dataset.
type scanRow struct {
	Taxa       int
	Exhaustive bool
	Trees      int64
	States     int64
}

var workloads = []workload{
	{
		Name: "count-deep",
		Why:  "one stand of 418 k states and 1.67 M trees (about 1 s serial), count-only: kernel, step loop and work stealing do the work, start-up is under 1 %, no I/O",
		Kind: kindCount, Regime: gen.RegimeSimulated,
		Pins: []int{104},
		Match: func(r scanRow) bool {
			return r.Exhaustive && r.States+r.Trees >= 1_500_000 && r.States+r.Trees <= 3_000_000
		},
		ScanCap: 3_000_000, Rounds: 20, Cheap: 5,
	},
	{
		Name: "count-many",
		Why:  "16 small stands back to back (each under 50 k states+trees, most under 100), count-only: per-run fixed cost (parse, terrace.New, prefix, pool spawn) dominates, the step loop does little",
		Kind: kindCount, Regime: gen.RegimeSimulated,
		Pins:    []int{0, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16},
		Match:   func(r scanRow) bool { return r.Exhaustive && r.States+r.Trees <= 50_000 },
		ScanCap: 50_000, Rounds: 20, Cheap: 1,
	},
	{
		Name: "stream-file",
		Why:  "one stand of 5 625 trees on 129 taxa, every tree serialised to a buffered file: Newick emission, which the count workloads never run",
		Kind: kindStream, Regime: gen.RegimeEmpirical,
		Pins: []int{23},
		Match: func(r scanRow) bool {
			return r.Exhaustive && r.Trees >= 5_000 && r.Trees <= 40_000 && r.Taxa >= 100
		},
		ScanCap: 40_000, Rounds: 20, Cheap: 5,
	},
	{
		Name: "serve-jobs",
		Why:  "3 jobs of 1.5-3.7 k trees from two closed-loop clients through an in-process gentriusd over HTTP: journal, spool, NDJSON stream, queueing behind one worker; the engine is a small share",
		Kind: kindServe, Regime: gen.RegimeSimulated,
		Pins: []int{6, 12, 27},
		Match: func(r scanRow) bool {
			return r.Exhaustive && r.Trees >= 1_000 && r.Trees <= 5_000
		},
		ScanCap: 5_000, Rounds: 20, Cheap: 5,
	},
}

func findWorkload(name string) (*workload, error) {
	var names []string
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i], nil
		}
		names = append(names, workloads[i].Name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// scan walks the corpus from index 0 and returns the first want indices
// Match accepts. It is what Pins was derived with; runs use Pins.
func (w *workload) scan(want int) ([]int, error) {
	cfg := gen.Default(w.Regime)
	var out []int
	for idx := 0; idx < 400 && len(out) < want; idx++ {
		ds := gen.Generate(cfg, idx)
		res, err := search.Run(ds.Constraints, search.Options{
			InitialTree: -1,
			Limits:      search.Limits{MaxTrees: w.ScanCap + 1, MaxStates: w.ScanCap + 1, MaxTime: -1},
		})
		if err != nil {
			return nil, fmt.Errorf("scan %s idx %d: %w", w.Name, idx, err)
		}
		row := scanRow{
			Taxa:       ds.Taxa.Len(),
			Exhaustive: res.Stop == search.StopExhausted,
			Trees:      res.StandTrees,
			States:     res.IntermediateStates,
		}
		if w.Match(row) {
			out = append(out, idx)
		}
	}
	if len(out) < want {
		return out, fmt.Errorf("scan %s: %d of %d datasets found", w.Name, len(out), want)
	}
	return out, nil
}

// input is all the program under test receives for one unit: a constraint
// file as Newick text, one tree per line.
type input struct {
	Name  string
	Lines []string
}

func (in *input) text() string { return strings.Join(in.Lines, "\n") + "\n" }

var corpusLabel = regexp.MustCompile(`T[0-9]{3}`)

// makeInputs generates the workload's inputs for a seed. The seed renames
// every taxon (fixed-width labels, so parse and emit cost the same); it
// does not choose other datasets, and it leaves their order alone (on
// serve-jobs the order decides which job queues behind which).
// Stand sizes in the corpus differ by orders of magnitude, so a seed that
// re-ran the selection would change the amount of work by tens of percent,
// and a timing that moves that much with the seed cannot be held to any
// bound. Renaming keeps the search identical (taxon ids follow first
// appearance in the text, which renaming preserves) while every byte of
// the tree output, and so every hash the oracle checks, depends on the seed.
func (w *workload) makeInputs(seed int64, pins []int) []input {
	rng := rand.New(rand.NewSource(seed))
	cfg := gen.Default(w.Regime)
	prefix := string([]byte{byte('A' + rng.Intn(26)), byte('a' + rng.Intn(26))})
	out := make([]input, len(pins))
	for i, idx := range pins {
		ds := gen.Generate(cfg, idx)
		rename := rng.Perm(ds.Taxa.Len())
		in := input{Name: ds.Name}
		for _, c := range ds.Constraints {
			line := corpusLabel.ReplaceAllStringFunc(c.Newick(), func(l string) string {
				id, _ := strconv.Atoi(l[1:]) // l matched T[0-9]{3}
				return fmt.Sprintf("%s%04d", prefix, rename[id])
			})
			in.Lines = append(in.Lines, line)
		}
		out[i] = in
	}
	return out
}
