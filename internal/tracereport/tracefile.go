// Package tracereport is the read side of the trace contract: it parses
// the JSONL event traces an obs.Recorder wrote, analyses one run's trace
// (Analyze), merges per-node traces (MergeFleet; one run is a fleet of
// one), and renders Markdown reports and Chrome/Perfetto trace-event JSON. internal/obs
// writes, this package reads, and the obs.Ev* names are the whole contract
// between them: nothing a run executes imports this package (cmd/obsreport
// and tests do), so it can afford encoding/json where the writer
// hand-formats.
package tracereport

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// TraceEvent is one parsed scheduler trace event. Numeric payloads land in
// Fields, string tags (request ids, routes, job ids — the serving-path
// correlation identifiers) in Str.
type TraceEvent struct {
	TS     int64
	Ev     string
	Worker int
	Fields map[string]int64
	Str    map[string]string
}

// Get returns the named payload field, or 0 when absent.
func (e *TraceEvent) Get(k string) int64 { return e.Fields[k] }

// Has reports whether the event carries the named payload field.
func (e *TraceEvent) Has(k string) bool {
	_, ok := e.Fields[k]
	return ok
}

// GetStr returns the named string tag, or "" when absent.
func (e *TraceEvent) GetStr(k string) string { return e.Str[k] }

// ReadTrace parses a JSONL scheduler trace. Blank lines are skipped; a
// malformed line fails with its line number, and so does anything after
// the line's one JSON object — two events glued onto one line (writers
// sharing a file without the recorder's lock, a torn tail appended to)
// would otherwise lose the second and skew every count downstream.
func ReadTrace(r io.Reader) ([]TraceEvent, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var out []TraceEvent
	ln := 0
	for sc.Scan() {
		ln++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		dec := json.NewDecoder(bytes.NewReader(line))
		dec.UseNumber()
		var raw map[string]any
		if err := dec.Decode(&raw); err != nil {
			return nil, fmt.Errorf("tracereport: trace line %d: %w", ln, err)
		}
		if _, err := dec.Token(); err != io.EOF {
			return nil, fmt.Errorf("tracereport: trace line %d: trailing data after the event", ln)
		}
		ev := TraceEvent{Fields: map[string]int64{}}
		for k, v := range raw {
			if k == "ev" {
				s, ok := v.(string)
				if !ok {
					return nil, fmt.Errorf("tracereport: trace line %d: non-string ev", ln)
				}
				ev.Ev = s
				continue
			}
			if s, ok := v.(string); ok {
				if ev.Str == nil {
					ev.Str = map[string]string{}
				}
				ev.Str[k] = s
				continue
			}
			num, ok := v.(json.Number)
			if !ok {
				return nil, fmt.Errorf("tracereport: trace line %d: non-numeric field %q", ln, k)
			}
			n, err := num.Int64()
			if err != nil {
				return nil, fmt.Errorf("tracereport: trace line %d: field %q: %w", ln, k, err)
			}
			switch k {
			case "ts":
				ev.TS = n
			case "w":
				ev.Worker = int(n)
			default:
				ev.Fields[k] = n
			}
		}
		if ev.Ev == "" {
			return nil, fmt.Errorf("tracereport: trace line %d: missing ev", ln)
		}
		out = append(out, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("tracereport: reading trace: %w", err)
	}
	return out, nil
}
