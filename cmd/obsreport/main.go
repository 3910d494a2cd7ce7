// Command obsreport analyzes JSONL traces offline. Given one run's trace it
// emits a markdown report (per-worker utilization, steal-latency
// distribution, load imbalance, counter-conservation audit); given a fleet's
// per-node traces (one coordinator plus workers, comma-separated) it merges
// them into one timeline — clocks aligned NTP-free from dispatch/heartbeat
// RPC pairs, every shard's lease lineage reconstructed across nodes,
// stragglers ranked — and reports on that. Either way it can also write
// Chrome trace-event JSON that opens directly in Perfetto
// (https://ui.perfetto.dev) or chrome://tracing: a process per node, with
// re-dispatch handoffs drawn as flow arrows.
//
// Usage:
//
//	gentrius -trace run.jsonl ...            # or virtual-time/gentriusd traces
//	obsreport -trace run.jsonl -perfetto run.trace.json
//	obsreport -units ms -trace coord.jsonl,w1.jsonl,w2.jsonl -perfetto fleet.trace.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"gentrius/internal/obs"
	"gentrius/internal/tracereport"
)

func main() {
	traces := flag.String("trace", "", "JSONL trace to analyze ('-' for stdin), or comma-separated per-node traces ([name=]path) to merge into one fleet timeline (coordinator auto-detected)")
	outPath := flag.String("out", "", "write the markdown report here (default stdout)")
	perfetto := flag.String("perfetto", "", "also write Chrome trace-event JSON here (open in Perfetto)")
	units := flag.String("units", "ticks", "timestamp units in the trace: ticks (simulator), ms (fleet clocks) or ns (wall clock)")
	flag.Parse()

	if err := run(*traces, *outPath, *perfetto, *units); err != nil {
		fmt.Fprintln(os.Stderr, "obsreport:", err)
		os.Exit(1)
	}
}

func unitsPerMicrosecond(units string) (float64, error) {
	switch units {
	case "ticks":
		return 1, nil // one virtual tick displayed as 1µs
	case "ms":
		return 0.001, nil // fleet recorders stamp milliseconds
	case "ns":
		return 1000, nil
	default:
		return 0, fmt.Errorf("-units must be ticks, ms or ns, got %q", units)
	}
}

// run merges the listed traces and writes the report of the merge: the run
// report of the raw events when the merge has no coordinator (one run's
// trace), else the fleet report.
func run(traces, outPath, perfetto, units string) error {
	unitsPerMicro, err := unitsPerMicrosecond(units)
	if err != nil {
		return err
	}
	var nodes []tracereport.NodeTrace
	for _, p := range strings.Split(traces, ",") {
		if p = strings.TrimSpace(p); p == "" {
			continue
		}
		name, path, pinned := strings.Cut(p, "=")
		if !pinned {
			name, path = "", p
		}
		events, err := readTrace(path)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if name == "" {
			name = nodeName(path, events)
		}
		nodes = append(nodes, tracereport.NodeTrace{Name: name, Events: events})
	}
	if len(nodes) == 0 {
		return fmt.Errorf("-trace names no trace file")
	}
	rep, err := tracereport.MergeFleet(nodes, units)
	if err != nil {
		return err
	}
	if err := writeTo(outPath, func(w io.Writer) error {
		if rep.Nodes[0].Role == "run" {
			return tracereport.Analyze(nodes[0].Events, units).WriteMarkdown(w)
		}
		return rep.WriteMarkdown(w)
	}); err != nil || perfetto == "" {
		return err
	}
	return writeTo(perfetto, func(w io.Writer) error { return rep.WriteChromeTrace(w, unitsPerMicro) })
}

func readTrace(path string) ([]tracereport.TraceEvent, error) {
	if path == "-" {
		return tracereport.ReadTrace(os.Stdin)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return tracereport.ReadTrace(f)
}

// nodeName labels a trace not pinned as name=path: a worker by the node tag
// its own shard events carry, anything else by the file's base name without
// .jsonl. Coordinator events tag the shard's holder, so they name no one.
func nodeName(path string, events []tracereport.TraceEvent) string {
	for _, e := range events {
		switch e.Ev {
		case obs.EvShardDispatch, obs.EvFleetRun:
			return strings.TrimSuffix(filepath.Base(path), ".jsonl")
		case obs.EvShardBegin, obs.EvShardEnd, obs.EvShardHeartbeat, obs.EvShardCheckpoint:
			if n := e.GetStr("node"); n != "" {
				return n
			}
		}
	}
	return strings.TrimSuffix(filepath.Base(path), ".jsonl")
}

// writeTo writes to the named file, or to stdout when path is "".
func writeTo(path string, write func(io.Writer) error) error {
	if path == "" {
		return write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
