// Chrome trace-event export: converts a parsed JSONL scheduler trace into
// the Trace Event Format JSON that chrome://tracing and Perfetto
// (https://ui.perfetto.dev) open directly. Task-begin/task-end pairs become
// duration slices on per-worker tracks, submit→steal handoffs become flow
// arrows (the steal chains), and everything else becomes instant markers.
package tracereport

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"gentrius/internal/obs"
)

// chromeEvent is one entry of the Trace Event Format "traceEvents" array.
// json's sorted map keys for args keep the output byte-deterministic for a
// given input trace.
type chromeEvent struct {
	Name  string  `json:"name,omitempty"`
	Cat   string  `json:"cat,omitempty"`
	Ph    string  `json:"ph"`
	TS    float64 `json:"ts"`
	PID   int     `json:"pid"`
	TID   int     `json:"tid"`
	Scope string  `json:"s,omitempty"`
	ID    int64   `json:"id,omitempty"`
	BP    string  `json:"bp,omitempty"`
	Args  any     `json:"args,omitempty"`
}

// poolTID is the synthetic thread id pool-level events (worker -1, e.g.
// stop-rule firings) are displayed on; httpTID and jobTID carry the
// serving-path request and job spans.
const (
	poolTID = 1 << 20
	httpTID = poolTID + 1
	jobTID  = poolTID + 2
)

// WriteChromeTrace renders events as Chrome Trace Event Format JSON.
// unitsPerMicro converts recorder timestamps to microseconds: 1 for
// virtual-tick traces (one tick displayed as one µs), 1000 for wall-clock
// nanosecond traces. Task spans left open when the trace ends (a stopped
// run) are closed at the final timestamp so every track stays balanced.
func WriteChromeTrace(w io.Writer, events []TraceEvent, unitsPerMicro float64) error {
	if unitsPerMicro <= 0 {
		unitsPerMicro = 1
	}
	us := func(ts int64) float64 { return float64(ts) / unitsPerMicro }
	args := func(f map[string]int64) any {
		if len(f) == 0 {
			return nil
		}
		return f
	}

	serveEvent := func(ev string) bool {
		switch ev {
		case obs.EvHTTPStart, obs.EvHTTPEnd, obs.EvJobSubmit, obs.EvJobStart, obs.EvJobEnd:
			return true
		}
		return false
	}

	workers := map[int]bool{}
	maxTS := int64(0)
	hasPool := false
	hasHTTP, hasJob := false, false
	for _, e := range events {
		if e.TS > maxTS {
			maxTS = e.TS
		}
		switch {
		case e.Ev == obs.EvHTTPStart || e.Ev == obs.EvHTTPEnd:
			hasHTTP = true
		case e.Ev == obs.EvJobSubmit || e.Ev == obs.EvJobStart || e.Ev == obs.EvJobEnd:
			hasJob = true
		case e.Worker >= 0:
			workers[e.Worker] = true
		default:
			hasPool = true
		}
	}

	// Metadata: name the process and one track per worker.
	out := []chromeEvent{{Name: "process_name", Ph: "M", PID: 0,
		Args: map[string]string{"name": "gentrius"}}}
	ids := make([]int, 0, len(workers))
	for id := range workers {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		out = append(out, chromeEvent{Name: "thread_name", Ph: "M", PID: 0,
			TID: id, Args: map[string]string{"name": fmt.Sprintf("worker %d", id)}})
	}
	if hasPool {
		out = append(out, chromeEvent{Name: "thread_name", Ph: "M", PID: 0,
			TID: poolTID, Args: map[string]string{"name": "pool"}})
	}
	if hasHTTP {
		out = append(out, chromeEvent{Name: "thread_name", Ph: "M", PID: 0,
			TID: httpTID, Args: map[string]string{"name": "http"}})
	}
	if hasJob {
		out = append(out, chromeEvent{Name: "thread_name", Ph: "M", PID: 0,
			TID: jobTID, Args: map[string]string{"name": "jobs"}})
	}

	// Serving-path spans are async (ph b/e): requests overlap freely, so
	// the per-track begin/end stack the worker slices use cannot hold.
	// Matching is by (cat, id); the request serial and job serial provide
	// run-unique ids. httpNames remembers each request's slice name so the
	// closing event pairs up in chrome://tracing's legacy matcher too.
	httpNames := map[int64]string{}
	jobBegun := map[int64]bool{}
	sargs := func(e *TraceEvent) any {
		m := map[string]string{}
		for k, v := range e.Str {
			m[k] = v
		}
		for k, v := range e.Fields {
			m[k] = fmt.Sprint(v)
		}
		if len(m) == 0 {
			return nil
		}
		return m
	}

	open := map[[2]int]int{} // (pid 0, tid) -> open task-begin count
	for i := range events {
		e := events[i]
		if serveEvent(e.Ev) {
			switch e.Ev {
			case obs.EvHTTPStart:
				name := "http " + e.GetStr("route")
				httpNames[e.Get("reqn")] = name
				out = append(out, chromeEvent{
					Name: name, Cat: "request", Ph: "b", TS: us(e.TS),
					PID: 0, TID: httpTID, ID: e.Get("reqn"), Args: sargs(&events[i]),
				})
			case obs.EvHTTPEnd:
				name := httpNames[e.Get("reqn")]
				if name == "" {
					name = "http"
				}
				out = append(out, chromeEvent{
					Name: name, Cat: "request", Ph: "e", TS: us(e.TS),
					PID: 0, TID: httpTID, ID: e.Get("reqn"), Args: sargs(&events[i]),
				})
			case obs.EvJobSubmit:
				out = append(out, chromeEvent{
					Name: "queue-wait", Cat: "job-queue", Ph: "b", TS: us(e.TS),
					PID: 0, TID: jobTID, ID: e.Get("jobn"), Args: sargs(&events[i]),
				})
				if reqn := e.Get("reqn"); reqn != 0 {
					// Flow arrow: the submitting HTTP request hands off to
					// the job's queue-wait span.
					out = append(out, chromeEvent{
						Name: "submit-flow", Cat: "request-flow", Ph: "s",
						TS: us(e.TS), PID: 0, TID: httpTID, ID: reqn,
					})
					out = append(out, chromeEvent{
						Name: "submit-flow", Cat: "request-flow", Ph: "f", BP: "e",
						TS: us(e.TS), PID: 0, TID: jobTID, ID: reqn,
					})
				}
			case obs.EvJobStart:
				jobBegun[e.Get("jobn")] = true
				out = append(out, chromeEvent{
					Name: "queue-wait", Cat: "job-queue", Ph: "e", TS: us(e.TS),
					PID: 0, TID: jobTID, ID: e.Get("jobn"),
				})
				out = append(out, chromeEvent{
					Name: "exec", Cat: "job-exec", Ph: "b", TS: us(e.TS),
					PID: 0, TID: jobTID, ID: e.Get("jobn"), Args: sargs(&events[i]),
				})
			case obs.EvJobEnd:
				// A job cancelled while queued ends without beginning: close
				// its queue-wait span instead of a never-opened exec span.
				if jobBegun[e.Get("jobn")] {
					out = append(out, chromeEvent{
						Name: "exec", Cat: "job-exec", Ph: "e", TS: us(e.TS),
						PID: 0, TID: jobTID, ID: e.Get("jobn"), Args: sargs(&events[i]),
					})
				} else {
					out = append(out, chromeEvent{
						Name: "queue-wait", Cat: "job-queue", Ph: "e", TS: us(e.TS),
						PID: 0, TID: jobTID, ID: e.Get("jobn"), Args: sargs(&events[i]),
					})
				}
			}
			continue
		}
		tid := e.Worker
		scope := "t"
		if tid < 0 {
			tid = poolTID
			scope = "p"
		}
		switch e.Ev {
		case obs.EvTaskStart:
			out = append(out, chromeEvent{
				Name: fmt.Sprintf("task %d", e.Get("task")),
				Cat:  "task", Ph: "B", TS: us(e.TS), PID: 0, TID: tid,
				Args: args(e.Fields),
			})
			open[[2]int{0, tid}]++
		case obs.EvTaskEnd:
			if k := [2]int{0, tid}; open[k] > 0 {
				out = append(out, chromeEvent{Ph: "E", TS: us(e.TS), PID: 0, TID: tid})
				open[k]--
			}
		case obs.EvTaskSubmit:
			out = append(out, chromeEvent{
				Name: "submit", Cat: "handoff", Ph: "i", Scope: "t",
				TS: us(e.TS), PID: 0, TID: tid, Args: args(e.Fields),
			})
			if id := e.Get("task"); id != 0 {
				out = append(out, chromeEvent{
					Name: "handoff", Cat: "handoff", Ph: "s",
					TS: us(e.TS), PID: 0, TID: tid, ID: id,
				})
			}
		case obs.EvSteal:
			out = append(out, chromeEvent{
				Name: "steal", Cat: "handoff", Ph: "i", Scope: "t",
				TS: us(e.TS), PID: 0, TID: tid, Args: args(e.Fields),
			})
			if id := e.Get("task"); id != 0 {
				out = append(out, chromeEvent{
					Name: "handoff", Cat: "handoff", Ph: "f", BP: "e",
					TS: us(e.TS), PID: 0, TID: tid, ID: id,
				})
			}
		default:
			out = append(out, chromeEvent{
				Name: e.Ev, Cat: "sched", Ph: "i", Scope: scope,
				TS: us(e.TS), PID: 0, TID: tid, Args: args(e.Fields),
			})
		}
	}
	return writeChromeJSON(w, out, open, us(maxTS))
}

// writeChromeJSON finishes a trace-event document: task slices a stopped
// run left open (open: (pid, tid) -> unmatched "B" count) are closed at
// endTS in track order, so every track stays balanced and the output is
// deterministic, then the events are written as one Trace Event Format
// JSON object.
func writeChromeJSON(w io.Writer, out []chromeEvent, open map[[2]int]int, endTS float64) error {
	keys := make([][2]int, 0, len(open))
	for k := range open {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a][0] != keys[b][0] {
			return keys[a][0] < keys[b][0]
		}
		return keys[a][1] < keys[b][1]
	})
	for _, k := range keys {
		for n := open[k]; n > 0; n-- {
			out = append(out, chromeEvent{Ph: "E", TS: endTS, PID: k[0], TID: k[1]})
		}
	}

	if _, err := io.WriteString(w, `{"displayTimeUnit":"ms","traceEvents":[`); err != nil {
		return err
	}
	for i := range out {
		if i > 0 {
			if _, err := io.WriteString(w, ","); err != nil {
				return err
			}
		}
		b, err := json.Marshal(&out[i])
		if err != nil {
			return err
		}
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "]}\n")
	return err
}
