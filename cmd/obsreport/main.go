// Command obsreport analyzes a JSONL scheduler trace offline. It emits a
// markdown report (per-worker utilization, steal-latency distribution, load
// imbalance, counter-conservation audit) and optionally a Chrome
// trace-event JSON file that opens directly in Perfetto
// (https://ui.perfetto.dev) or chrome://tracing.
//
// With -fleet it instead merges N per-node traces (one coordinator plus
// workers, comma-separated) into a single fleet timeline: clocks aligned
// NTP-free from dispatch/heartbeat RPC pairs, every shard's lease lineage
// reconstructed across nodes, stragglers ranked, and re-dispatch handoffs
// drawn as flow arrows in the Perfetto export.
//
// Usage:
//
//	gentrius -trace run.jsonl ...            # or virtual-time/gentriusd traces
//	obsreport -trace run.jsonl -perfetto run.trace.json
//	obsreport -fleet coord.jsonl,w1.jsonl,w2.jsonl -perfetto fleet.trace.json
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
	tracePath := flag.String("trace", "", "JSONL scheduler trace to analyze ('-' for stdin)")
	fleet := flag.String("fleet", "", "comma-separated per-node JSONL traces ([name=]path) to merge into one fleet timeline (coordinator auto-detected)")
	outPath := flag.String("out", "", "write the markdown report here (default stdout)")
	perfetto := flag.String("perfetto", "", "also write Chrome trace-event JSON here (open in Perfetto)")
	units := flag.String("units", "ticks", "timestamp units in the trace: ticks (simulator), ms (fleet clocks) or ns (wall clock)")
	flag.Parse()

	var err error
	if *fleet != "" {
		err = runFleet(*fleet, *outPath, *perfetto, *units)
	} else {
		err = run(*tracePath, *outPath, *perfetto, *units)
	}
	if err != nil {
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

func openOut(outPath string) (io.Writer, func() error, error) {
	if outPath == "" {
		return os.Stdout, func() error { return nil }, nil
	}
	f, err := os.Create(outPath)
	if err != nil {
		return nil, nil, err
	}
	return f, f.Close, nil
}

func run(tracePath, outPath, perfetto, units string) error {
	if tracePath == "" {
		return fmt.Errorf("one of -trace or -fleet is required")
	}
	unitsPerMicro, err := unitsPerMicrosecond(units)
	if err != nil {
		return err
	}

	var in io.Reader
	if tracePath == "-" {
		in = os.Stdin
	} else {
		f, err := os.Open(tracePath)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	events, err := tracereport.ReadTrace(in)
	if err != nil {
		return err
	}

	out, closeOut, err := openOut(outPath)
	if err != nil {
		return err
	}
	if err := tracereport.Analyze(events, units).WriteMarkdown(out); err != nil {
		closeOut()
		return err
	}
	if err := closeOut(); err != nil {
		return err
	}

	if perfetto != "" {
		f, err := os.Create(perfetto)
		if err != nil {
			return err
		}
		if err := tracereport.WriteChromeTrace(f, events, unitsPerMicro); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// runFleet merges per-node traces into one timeline. An entry may pin its
// node's display name explicitly (name=path); otherwise the name comes from
// the trace's own "node" tags when present, with the file basename (minus
// .jsonl) as the fallback label.
func runFleet(fleetArg, outPath, perfetto, units string) error {
	unitsPerMicro, err := unitsPerMicrosecond(units)
	if err != nil {
		return err
	}
	var nodes []tracereport.NodeTrace
	for _, p := range strings.Split(fleetArg, ",") {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		pinned := ""
		if eq := strings.IndexByte(p, '='); eq >= 0 {
			pinned, p = p[:eq], p[eq+1:]
		}
		f, err := os.Open(p)
		if err != nil {
			return err
		}
		events, err := tracereport.ReadTrace(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
		name := pinned
		if name == "" {
			// A worker's own span events carry its node tag; coordinator
			// events tag OTHER nodes (the shard holder), so never trust those.
			fallback := strings.TrimSuffix(filepath.Base(p), ".jsonl")
			name = fallback
			for _, e := range events {
				if e.Ev == obs.EvShardDispatch || e.Ev == obs.EvFleetRun {
					break // coordinator trace: keep the file-derived label
				}
				switch e.Ev {
				case obs.EvShardBegin, obs.EvShardEnd, obs.EvShardHeartbeat, obs.EvShardCheckpoint:
					if n := e.GetStr("node"); n != "" {
						name = n
					}
				}
				if name != fallback {
					break
				}
			}
		}
		nodes = append(nodes, tracereport.NodeTrace{Name: name, Events: events})
	}
	if len(nodes) == 0 {
		return fmt.Errorf("-fleet lists no trace files")
	}

	rep, err := tracereport.MergeFleet(nodes, units)
	if err != nil {
		return err
	}

	out, closeOut, err := openOut(outPath)
	if err != nil {
		return err
	}
	if err := rep.WriteMarkdown(out); err != nil {
		closeOut()
		return err
	}
	if err := closeOut(); err != nil {
		return err
	}

	if perfetto != "" {
		f, err := os.Create(perfetto)
		if err != nil {
			return err
		}
		if err := rep.WriteFleetChromeTrace(f, unitsPerMicro); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}
