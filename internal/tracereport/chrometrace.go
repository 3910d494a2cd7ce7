// Chrome trace-event export: renders a merged trace (MergeFleet; one run's
// trace is a fleet of one) as the Trace Event Format JSON that
// chrome://tracing and Perfetto (https://ui.perfetto.dev) open directly.
// Every node is a process. On it, task-begin/task-end pairs become duration
// slices on per-worker tracks, submit→steal handoffs become flow arrows (the
// steal chains), requests and jobs become async spans on the http and jobs
// tracks, and everything else becomes instant markers. A fleet's shard
// lineage adds an async span per epoch on the coordinator, one per begun
// epoch on its holder, and a re-dispatch arrow from each epoch to the next.
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
// stop-rule firings, every fleet event) are displayed on; httpTID and
// jobTID carry the serving-path request and job spans.
const (
	poolTID = 1 << 20
	httpTID = poolTID + 1
	jobTID  = poolTID + 2
)

var trackNames = map[int]string{poolTID: "pool", httpTID: "http", jobTID: "jobs"}

// track is the thread id e is drawn on.
func track(e *TraceEvent) int {
	switch e.Ev {
	case obs.EvHTTPStart, obs.EvHTTPEnd:
		return httpTID
	case obs.EvJobSubmit, obs.EvJobStart, obs.EvJobEnd:
		return jobTID
	}
	if e.Worker < 0 {
		return poolTID
	}
	return e.Worker
}

// WriteChromeTrace renders one run's events: the merge of that one trace,
// written by (*FleetReport).WriteChromeTrace.
func WriteChromeTrace(w io.Writer, events []TraceEvent, unitsPerMicro float64) error {
	rep, err := MergeFleet([]NodeTrace{{Name: "gentrius", Events: events}}, "")
	if err != nil {
		return err
	}
	return rep.WriteChromeTrace(w, unitsPerMicro)
}

// WriteChromeTrace renders the merged trace as Chrome Trace Event Format
// JSON, each event on the process of the trace it was read from.
// unitsPerMicro converts timestamps to microseconds: 1 for virtual-tick
// traces (one tick displayed as one µs), 1000 for wall-clock nanoseconds,
// 0.001 for the fleet's milliseconds. Task spans left open when the trace
// ends (a stopped run) are closed at the final timestamp so every track
// stays balanced.
func (r *FleetReport) WriteChromeTrace(w io.Writer, unitsPerMicro float64) error {
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

	// Metadata: name each node's process and its tracks, in tid order
	// (workers, pool, http, jobs).
	tracks := make([]map[int]bool, len(r.Nodes))
	for i := range tracks {
		tracks[i] = map[int]bool{}
	}
	for i := range r.Merged {
		tracks[r.src[i]][track(&r.Merged[i])] = true
	}
	var out []chromeEvent
	pidOf := map[string]int{}
	for i, n := range r.Nodes {
		pid := i + 1
		pidOf[n.Name] = pid
		out = append(out, chromeEvent{Name: "process_name", Ph: "M", PID: pid,
			Args: map[string]string{"name": fmt.Sprintf("%s (%s)", n.Name, n.Role)}})
		tids := make([]int, 0, len(tracks[i]))
		for tid := range tracks[i] {
			tids = append(tids, tid)
		}
		sort.Ints(tids)
		for _, tid := range tids {
			name := trackNames[tid]
			if name == "" {
				name = fmt.Sprintf("worker %d", tid)
			}
			out = append(out, chromeEvent{Name: "thread_name", Ph: "M", PID: pid,
				TID: tid, Args: map[string]string{"name": name}})
		}
	}

	// Shard lineage: coordinator-side async span per epoch, worker-side
	// async span per begun epoch, flow arrow from each epoch's end to its
	// successor's dispatch.
	coordPID := pidOf[r.CoordinatorName]
	asyncID := int64(0)
	flowID := int64(1 << 20)
	for _, sh := range r.Shards {
		for i := range sh.Epochs {
			l := &sh.Epochs[i]
			name := fmt.Sprintf("%s s%d e%d", l.Job, l.Shard, l.Epoch)
			asyncID++
			out = append(out, chromeEvent{Name: name, Cat: "shard", Ph: "b",
				TS: us(l.DispatchTS), PID: coordPID, TID: poolTID, ID: asyncID,
				Args: map[string]string{"holder": l.Holder, "cause": l.Cause,
					"outcome": l.Outcome}})
			out = append(out, chromeEvent{Name: name, Cat: "shard", Ph: "e",
				TS: us(l.EndTS), PID: coordPID, TID: poolTID, ID: asyncID})
			if pid, ok := pidOf[l.Holder]; ok && l.HasBegin {
				asyncID++
				out = append(out, chromeEvent{Name: name, Cat: "shard-exec", Ph: "b",
					TS: us(l.BeginTS), PID: pid, TID: poolTID, ID: asyncID,
					Args: map[string]string{"outcome": l.WorkerOutcome}})
				out = append(out, chromeEvent{Name: name, Cat: "shard-exec", Ph: "e",
					TS: us(max(l.EndTS, l.BeginTS)), PID: pid, TID: poolTID, ID: asyncID})
			}
			if i+1 < len(sh.Epochs) {
				flowID++
				out = append(out, chromeEvent{Name: "redispatch", Cat: "redispatch",
					Ph: "s", TS: us(l.EndTS), PID: coordPID, TID: poolTID, ID: flowID})
				out = append(out, chromeEvent{Name: "redispatch", Cat: "redispatch",
					Ph: "f", BP: "e", TS: us(sh.Epochs[i+1].DispatchTS), PID: coordPID,
					TID: poolTID, ID: flowID})
			}
		}
	}

	// Serving-path spans are async (ph b/e): requests overlap freely, so
	// the per-track begin/end stack the worker slices use cannot hold.
	// Matching is by (cat, id); the request serial and job serial provide
	// run-unique ids, and a node's ids are offset by its index so that two
	// nodes' serials never meet. httpNames remembers each request's slice
	// name so the closing event pairs up in chrome://tracing's legacy
	// matcher too.
	httpNames := map[int64]string{}
	jobBegun := map[int64]bool{}
	open := map[[2]int]int{} // (pid, tid) -> open task-begin count
	for i := range r.Merged {
		e := &r.Merged[i]
		pid, tid := r.src[i]+1, track(e)
		id := func(k string) int64 { return int64(pid-1)<<40 | e.Get(k) }
		switch e.Ev {
		case obs.EvHTTPStart:
			name := "http " + e.GetStr("route")
			httpNames[id("reqn")] = name
			out = append(out, chromeEvent{Name: name, Cat: "request", Ph: "b",
				TS: us(e.TS), PID: pid, TID: tid, ID: id("reqn"), Args: sargs(e)})
		case obs.EvHTTPEnd:
			name := httpNames[id("reqn")]
			if name == "" {
				name = "http"
			}
			out = append(out, chromeEvent{Name: name, Cat: "request", Ph: "e",
				TS: us(e.TS), PID: pid, TID: tid, ID: id("reqn"), Args: sargs(e)})
		case obs.EvJobSubmit:
			out = append(out, chromeEvent{Name: "queue-wait", Cat: "job-queue", Ph: "b",
				TS: us(e.TS), PID: pid, TID: tid, ID: id("jobn"), Args: sargs(e)})
			if e.Get("reqn") != 0 {
				// Flow arrow: the submitting HTTP request hands off to the
				// job's queue-wait span.
				out = append(out, chromeEvent{Name: "submit-flow", Cat: "request-flow", Ph: "s",
					TS: us(e.TS), PID: pid, TID: httpTID, ID: id("reqn")})
				out = append(out, chromeEvent{Name: "submit-flow", Cat: "request-flow", Ph: "f",
					BP: "e", TS: us(e.TS), PID: pid, TID: tid, ID: id("reqn")})
			}
		case obs.EvJobStart:
			jobBegun[id("jobn")] = true
			out = append(out, chromeEvent{Name: "queue-wait", Cat: "job-queue", Ph: "e",
				TS: us(e.TS), PID: pid, TID: tid, ID: id("jobn")})
			out = append(out, chromeEvent{Name: "exec", Cat: "job-exec", Ph: "b",
				TS: us(e.TS), PID: pid, TID: tid, ID: id("jobn"), Args: sargs(e)})
		case obs.EvJobEnd:
			// A job cancelled while queued ends without beginning: close
			// its queue-wait span instead of a never-opened exec span.
			name, cat := "exec", "job-exec"
			if !jobBegun[id("jobn")] {
				name, cat = "queue-wait", "job-queue"
			}
			out = append(out, chromeEvent{Name: name, Cat: cat, Ph: "e",
				TS: us(e.TS), PID: pid, TID: tid, ID: id("jobn"), Args: sargs(e)})
		case obs.EvTaskStart:
			out = append(out, chromeEvent{Name: fmt.Sprintf("task %d", e.Get("task")),
				Cat: "task", Ph: "B", TS: us(e.TS), PID: pid, TID: tid, Args: args(e.Fields)})
			open[[2]int{pid, tid}]++
		case obs.EvTaskEnd:
			if k := [2]int{pid, tid}; open[k] > 0 {
				out = append(out, chromeEvent{Ph: "E", TS: us(e.TS), PID: pid, TID: tid})
				open[k]--
			}
		case obs.EvTaskSubmit, obs.EvSteal:
			// A task's submit starts a handoff arrow, its steal ends it.
			name := "submit"
			flow := chromeEvent{Name: "handoff", Cat: "handoff", Ph: "s",
				TS: us(e.TS), PID: pid, TID: tid, ID: id("task")}
			if e.Ev == obs.EvSteal {
				name, flow.Ph, flow.BP = "steal", "f", "e"
			}
			out = append(out, chromeEvent{Name: name, Cat: "handoff", Ph: "i", Scope: "t",
				TS: us(e.TS), PID: pid, TID: tid, Args: args(e.Fields)})
			if e.Get("task") != 0 {
				out = append(out, flow)
			}
		default:
			scope := "t"
			if e.Worker < 0 {
				scope = "p"
			}
			out = append(out, chromeEvent{Name: e.Ev, Cat: "sched", Ph: "i", Scope: scope,
				TS: us(e.TS), PID: pid, TID: tid, Args: args(e.Fields)})
		}
	}
	return writeChromeJSON(w, out, open, us(r.LastTS))
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
