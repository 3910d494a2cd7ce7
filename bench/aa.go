package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// benchmarkFile is the part of BENCHMARK.json the A/A check reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// quartiles returns the three cut points Python's
// statistics.quantiles(values, n=4) gives (its default, exclusive method),
// which is what the driver computes a spread from.
func quartiles(values []float64) [3]float64 {
	s := sorted(values)
	m := len(s)
	var q [3]float64
	if m < 2 {
		return q
	}
	for i := 1; i <= 3; i++ {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

// runAA runs the same code in several sets, each set every workload (or
// only the named one) runs times on seeds 1..runs, every run a fresh process as the driver starts
// them. For each workload and end-to-end metric it prints the set medians,
// the largest gap between two of them, the largest spread within a set
// (interquartile distance over median) and the bound; it returns 1 when a
// gap or a spread exceeds its bound. The output is markdown: AA.md is this
// table for the reference host.
func runAA(sets, runs int, outDir, only string) int {
	data, err := os.ReadFile("BENCHMARK.json")
	fatalIf(err)
	var bf benchmarkFile
	fatalIf(json.Unmarshal(data, &bf))
	self, err := os.Executable()
	fatalIf(err)

	// values[workload][metric][set] = the runs' values
	values := map[string]map[string][][]float64{}
	noise := make([][]float64, sets)
	var chosen []workload
	for _, w := range workloads {
		if only == "" || only == w.Name {
			chosen = append(chosen, w)
		}
	}
	for set := 0; set < sets; set++ {
		for _, w := range chosen {
			if values[w.Name] == nil {
				values[w.Name] = map[string][][]float64{}
			}
			for run := 0; run < runs; run++ {
				metrics, ratio, err := runOnce(self, outDir, w.Name, int64(run+1))
				fatalIf(err)
				noise[set] = append(noise[set], ratio)
				for name, m := range metrics {
					col := values[w.Name][name]
					for len(col) <= set {
						col = append(col, nil)
					}
					col[set] = append(col[set], m.Value)
					values[w.Name][name] = col
				}
			}
		}
	}

	fmt.Printf("# A/A check: %d sets of %d runs per workload\n\n", sets, runs)
	fmt.Printf("%s, nproc %d, %s, %s. host.noise_ratio (median over the set's runs):",
		time.Now().Format("2006-01-02"), runtime.NumCPU(), runtime.Version(), readBuildInfo().Commit)
	for set := range noise {
		fmt.Printf(" set %d %.2f", set+1, median(noise[set]))
	}
	fmt.Printf(".\n\n| workload | metric | set medians | gap | spread | bound | |\n|---|---|---|---|---|---|---|\n")
	breaches := 0
	for _, w := range chosen {
		for _, e := range bf.EndToEnd {
			col := values[w.Name][e.Name]
			var meds []float64
			spread := 0.0
			for _, set := range col {
				meds = append(meds, median(set))
				if q := quartiles(set); q[1] > 0 && (q[2]-q[0])/q[1] > spread {
					spread = (q[2] - q[0]) / q[1]
				}
			}
			sort.Float64s(meds)
			gap := (meds[len(meds)-1] - meds[0]) / meds[0]
			verdict := "ok"
			if gap > e.Bound || (spread > e.Bound && e.Name != "setup_s") {
				verdict = "BREACH"
				breaches++
			}
			fmt.Printf("| %s | %s |", w.Name, e.Name)
			for _, m := range meds {
				fmt.Printf(" %.4g", m)
			}
			fmt.Printf(" | %.1f %% | %.1f %% | %.0f %% | %s |\n", gap*100, spread*100, e.Bound*100, verdict)
		}
	}
	if breaches > 0 {
		fmt.Printf("\n%d breaches.\n", breaches)
		return 1
	}
	fmt.Printf("\nNo breach.\n")
	return 0
}

// runOnce starts one timed run as a child process and reads its last line.
func runOnce(self, outDir, workload string, seed int64) (map[string]metric, float64, error) {
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatInt(seed, 10), "-out", outDir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, 0, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var last struct {
		Correct bool              `json:"correct"`
		Metrics map[string]metric `json:"metrics"`
	}
	if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil {
		return nil, 0, fmt.Errorf("%s seed %d: last line: %w", workload, seed, err)
	}
	if !last.Correct {
		return nil, 0, fmt.Errorf("%s seed %d: incorrect output", workload, seed)
	}
	// The run's bookkeeping is not on the last line; it is in results.json.
	var all map[string]*report
	if data, err := os.ReadFile(filepath.Join(outDir, "results.json")); err == nil {
		json.Unmarshal(data, &all) //nolint:errcheck // a missing ratio prints as 0
	}
	var ratio float64
	if r := all[workload]; r != nil {
		ratio = r.Info["host.noise_ratio"].Value
	}
	return last.Metrics, ratio, nil
}
