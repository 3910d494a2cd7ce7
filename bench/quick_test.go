package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"
)

// benchmarkNames reads the metric and workload names the driver will ask
// for from BENCHMARK.json at the repository root.
func benchmarkNames(t *testing.T) (workloadNames, endToEnd, perLayer []string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	for _, w := range f.Workloads {
		workloadNames = append(workloadNames, w.Name)
	}
	for _, m := range f.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range f.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return
}

func names(m map[string]metric) []string {
	var out []string
	for n := range m {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Every workload runs in -quick mode, timed and traced, without a failed
// operation, and reports exactly the metrics BENCHMARK.json declares.
func TestQuickRuns(t *testing.T) {
	wantWorkloads, endToEnd, perLayer := benchmarkNames(t)
	sort.Strings(endToEnd)
	sort.Strings(perLayer)
	if len(wantWorkloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the table has %d", len(wantWorkloads), len(workloads))
	}
	start := time.Now()
	for i, name := range wantWorkloads {
		if workloads[i].Name != name {
			t.Errorf("workload %d is %s in BENCHMARK.json, %s in the table", i, name, workloads[i].Name)
		}
		for _, traced := range []bool{false, true} {
			cfg := &config{W: &workloads[i], Seed: 3, Quick: true, OutDir: t.TempDir()}
			run, want, got := runTimed, endToEnd, (*report).metricNames
			if traced {
				run, want = runTraced, perLayer
			}
			rep, err := run(cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if rep.OpsAttempted == 0 || rep.OpsFailed != 0 {
				t.Errorf("%s traced=%v: %d of %d operations failed: %v", name, traced, rep.OpsFailed, rep.OpsAttempted, rep.Failures)
			}
			if g := got(rep); !equal(g, want) {
				t.Errorf("%s traced=%v reports %v, BENCHMARK.json declares %v", name, traced, g, want)
			}
			if traced {
				if _, err := os.Stat(cfg.OutDir + "/" + name + ".spans.json"); err != nil {
					t.Errorf("%s: no span file: %v", name, err)
				}
			}
		}
	}
	t.Logf("quick runs of all workloads took %v", time.Since(start))
}

func (r *report) metricNames() []string {
	if r.Traced {
		return names(r.Layers)
	}
	return names(r.Metrics)
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// A wrong oracle value fails every checked pass, and the report says so:
// main turns a report with failed operations into exit code 1.
func TestWrongOracleFails(t *testing.T) {
	for _, name := range []string{"count-many", "stream-file", "serve-jobs"} {
		w, _ := findWorkload(name)
		cfg := &config{W: w, Seed: 1, Quick: true, OutDir: t.TempDir()}
		p, err := prepare(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if p.exps[0].Trees != nil {
			p.exps[0].Trees.Sum++ // one bit of one tree line
		} else {
			p.exps[0].Counters.DeadEnds++
		}
		led := &ledger{}
		vs := p.variants()
		measure(vs, 1, led)
		p.cleanup()
		checked := 0
		for _, v := range vs {
			if v.name != "probe" && v.name != "setup" { // neither compares with the oracle
				checked += v.reps
			}
		}
		if led.Failed != checked {
			t.Errorf("%s: %d of %d passes failed against a wrong oracle, want %d: %v",
				name, led.Failed, led.Attempted, checked, led.Failures)
		}
	}
}
