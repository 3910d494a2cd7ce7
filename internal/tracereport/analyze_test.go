// Golden tests for the offline trace pipeline: a committed simulator trace
// must regenerate byte-identically (the simulator is deterministic), the
// analyzer's markdown report must match its golden file, and the Chrome
// trace-event export must be valid, deterministic JSON. Regenerate the
// testdata with `go test ./internal/tracereport -run Golden -update`.
//
// What a Recorder writes today must still read into the same report: the
// trace is regenerated through internal/obs and parallel.Simulate, and read
// back by the package under test.
package tracereport_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"gentrius/internal/gen"
	"gentrius/internal/obs"
	"gentrius/internal/parallel"
	"gentrius/internal/search"
	"gentrius/internal/tracereport"
)

var update = flag.Bool("update", false, "rewrite the golden testdata files")

const (
	goldenDir    = "testdata/"
	goldenTrace  = goldenDir + "sim_small.trace.jsonl"
	goldenReport = goldenDir + "sim_small.report.md"
)

// genGoldenTrace reproduces the committed trace: the first small corpus
// dataset whose 4-worker simulated run completes with work stealing.
func genGoldenTrace(t *testing.T) []byte {
	t.Helper()
	cfg := gen.Default(gen.RegimeSimulated)
	cfg.MinTaxa, cfg.MaxTaxa = 16, 30
	lim, vt := search.Limits{MaxTrees: 50_000, MaxStates: 50_000}, parallel.VirtualTime{MaxTicks: 500_000}
	for idx := 0; idx < 200; idx++ {
		ds := gen.Generate(cfg, idx)
		var buf bytes.Buffer
		rec := obs.NewRecorder(&buf, nil)
		res, err := parallel.Simulate(ds.Constraints, search.Options{
			Threads: 4, InitialTree: -1, Limits: lim, Obs: &obs.Sink{Trace: rec},
		}, vt)
		if err != nil {
			t.Fatalf("%s: %v", ds.Name, err)
		}
		if err := rec.Flush(); err != nil {
			t.Fatal(err)
		}
		submit := []byte(`"ev":"` + obs.EvTaskSubmit + `"`)
		handedOff := bytes.Count(buf.Bytes(), submit) > bytes.Count(buf.Bytes(), append(submit, `,"w":-1`...))
		if res.Stop != search.StopExhausted || !handedOff ||
			buf.Len() < 2_000 || buf.Len() > 64_000 {
			continue
		}
		return buf.Bytes()
	}
	t.Fatal("no small corpus dataset completed with stealing")
	return nil
}

func TestGoldenTraceRegenerates(t *testing.T) {
	got := genGoldenTrace(t)
	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenTrace), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenTrace, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenTrace)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("regenerated trace differs from %s (%d vs %d bytes); "+
			"run with -update if the scheduler intentionally changed",
			goldenTrace, len(got), len(want))
	}
}

func TestGoldenReport(t *testing.T) {
	raw, err := os.ReadFile(goldenTrace)
	if err != nil {
		t.Fatal(err)
	}
	events, err := tracereport.ReadTrace(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	rep := tracereport.Analyze(events, "ticks")
	if len(rep.Audit) != 0 {
		t.Fatalf("golden trace fails conservation audit: %v", rep.Audit)
	}
	if rep.Steals == 0 || rep.TaskBegins == 0 || rep.StealLatency.N == 0 {
		t.Fatalf("golden trace lacks expected activity: %+v", rep)
	}
	var got bytes.Buffer
	if err := rep.WriteMarkdown(&got); err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(goldenReport, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenReport)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("report differs from %s; run with -update if the analyzer "+
			"intentionally changed.\n--- got ---\n%s", goldenReport, got.String())
	}
}

func TestChromeTraceExport(t *testing.T) {
	raw, err := os.ReadFile(goldenTrace)
	if err != nil {
		t.Fatal(err)
	}
	events, err := tracereport.ReadTrace(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := tracereport.WriteChromeTrace(&a, events, 1); err != nil {
		t.Fatal(err)
	}
	if err := tracereport.WriteChromeTrace(&b, events, 1); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("Chrome export is not deterministic")
	}
	var doc struct {
		DisplayTimeUnit string           `json:"displayTimeUnit"`
		TraceEvents     []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(a.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" || len(doc.TraceEvents) == 0 {
		t.Fatalf("export malformed: unit %q, %d events",
			doc.DisplayTimeUnit, len(doc.TraceEvents))
	}
	begins, ends, flowStarts, flowEnds := 0, 0, 0, 0
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "B":
			begins++
		case "E":
			ends++
		case "s":
			flowStarts++
		case "f":
			flowEnds++
		}
	}
	if begins == 0 || begins != ends {
		t.Fatalf("unbalanced duration slices: %d B vs %d E", begins, ends)
	}
	if flowStarts == 0 || flowEnds == 0 {
		t.Fatalf("missing steal-chain flow events: %d s, %d f", flowStarts, flowEnds)
	}
}
