// Offline trace analysis: turns a parsed scheduler trace into the summary
// cmd/obsreport renders — per-worker utilization, steal-latency
// distribution, load imbalance, and a counter-conservation audit that
// cross-checks span pairing, submit/steal bookkeeping, and flushed counter
// totals against the stop-rule snapshot.
package tracereport

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"gentrius/internal/obs"
	"gentrius/internal/stats"
)

// WorkerStat aggregates one worker's activity over the trace.
type WorkerStat struct {
	ID          int
	Tasks       int64   // task-begin events on this worker
	Steals      int64   // tasks it dequeued from the shared queue
	Busy        int64   // time units inside task spans (open spans run to trace end)
	Utilization float64 // Busy / trace span
}

// TraceReport is the analysis of one scheduler trace.
type TraceReport struct {
	Events   int
	FirstTS  int64
	LastTS   int64
	Units    string // timestamp unit label ("ticks" or "ns")
	ByWorker []WorkerStat

	TaskBegins, TaskEnds, OpenSpans int64
	Submits, Steals                 int64

	StealLatency stats.Summary // submit→steal delay per stolen task id

	// Imbalance is max/mean busy time across workers (1 = perfectly even);
	// zero when no worker was ever busy.
	Imbalance float64

	// Flushed counter totals (sums of flush-event deltas) and, when the
	// trace ends with a stop event, the global totals it snapshotted.
	Flushes                            int64
	FlushTrees, FlushStates, FlushDead int64
	HasStop                            bool
	StopTrees, StopStates              int64

	Panics int64

	// Serving-path request analysis (populated when the trace carries
	// http-begin/http-end and job-submit/begin/end events from gentriusd).
	HTTPSpans    int64 // completed request spans
	OpenHTTP     int64 // requests still in flight at trace end
	ByRoute      []RouteStat
	JobSpans     int64
	JobQueueWait stats.Summary // job-submit → job-begin, per job
	JobExec      stats.Summary // job-begin → job-end, per job
	Slowest      []RequestSpan // slowest completed requests, most severe first

	// Audit lists conservation violations; an empty list means the trace is
	// internally consistent.
	Audit []string
}

// RouteStat aggregates the completed request spans of one HTTP route.
type RouteStat struct {
	Route   string
	N       int64
	Errors  int64 // responses with status >= 500
	Latency stats.Summary
}

// RequestSpan is one reconstructed request lifecycle: the HTTP span and,
// when the request submitted a job, that job's queue-wait and execution
// spans (zero when the request never reached a job).
type RequestSpan struct {
	ReqID     string
	Route     string
	Status    int64
	Serial    int64 // the run-unique numeric request serial ("reqn")
	Start     int64
	End       int64
	JobID     string
	QueueWait int64
	Exec      int64
}

// Latency is the request's HTTP span duration in trace units.
func (s *RequestSpan) Latency() int64 { return s.End - s.Start }

// slowestCap bounds the drill-down table in reports.
const slowestCap = 10

// Span returns the trace duration in timestamp units.
func (r *TraceReport) Span() int64 { return r.LastTS - r.FirstTS }

// Analyze computes a TraceReport. units labels timestamps in the rendered
// report ("ticks" for simulator traces, "ns" for wall-clock ones).
func Analyze(events []TraceEvent, units string) *TraceReport {
	if units == "" {
		units = "units"
	}
	rep := &TraceReport{Events: len(events), Units: units}
	if len(events) == 0 {
		return rep
	}
	rep.FirstTS = events[0].TS
	rep.LastTS = events[0].TS
	for _, e := range events {
		if e.TS < rep.FirstTS {
			rep.FirstTS = e.TS
		}
		if e.TS > rep.LastTS {
			rep.LastTS = e.TS
		}
	}

	type wstate struct {
		WorkerStat
		openSince []int64 // begin timestamps of currently open spans
	}
	ws := map[int]*wstate{}
	worker := func(id int) *wstate {
		s := ws[id]
		if s == nil {
			s = &wstate{WorkerStat: WorkerStat{ID: id}}
			ws[id] = s
		}
		return s
	}

	submitTS := map[int64]int64{} // task id -> submit timestamp
	var latencies []float64
	stolen := map[int64]bool{}

	// Serving-path reconstruction state: open HTTP spans by request serial,
	// job phase stamps by job id.
	type httpOpen struct {
		ts    int64
		route string
		req   string
	}
	httpBegins := map[int64]httpOpen{}
	type jobSpan struct {
		id                  string
		req                 string
		reqn                int64
		submit, begin, end  int64
		hasSubmit, hasBegin bool
		hasEnd              bool
	}
	jobByID := map[string]*jobSpan{}
	jobOrder := []string{}
	jobAt := func(id string) *jobSpan {
		j := jobByID[id]
		if j == nil {
			j = &jobSpan{id: id}
			jobByID[id] = j
			jobOrder = append(jobOrder, id)
		}
		return j
	}
	var completed []RequestSpan

	for _, e := range events {
		switch e.Ev {
		case obs.EvTaskStart:
			w := worker(e.Worker)
			w.Tasks++
			w.openSince = append(w.openSince, e.TS)
			rep.TaskBegins++
		case obs.EvTaskEnd:
			w := worker(e.Worker)
			rep.TaskEnds++
			if n := len(w.openSince); n > 0 {
				w.Busy += e.TS - w.openSince[n-1]
				w.openSince = w.openSince[:n-1]
			} else {
				rep.Audit = append(rep.Audit, fmt.Sprintf(
					"task-end on worker %d at %d %s with no open span",
					e.Worker, e.TS, units))
			}
		case obs.EvTaskSubmit:
			rep.Submits++
			if id := e.Get("task"); id != 0 {
				submitTS[id] = e.TS
			}
		case obs.EvSteal:
			rep.Steals++
			worker(e.Worker).Steals++
			if id := e.Get("task"); id != 0 {
				if sub, ok := submitTS[id]; ok {
					latencies = append(latencies, float64(e.TS-sub))
				} else {
					rep.Audit = append(rep.Audit, fmt.Sprintf(
						"steal of task %d by worker %d has no matching submit",
						id, e.Worker))
				}
				if stolen[id] {
					rep.Audit = append(rep.Audit, fmt.Sprintf(
						"task %d stolen more than once", id))
				}
				stolen[id] = true
			}
		case obs.EvFlush:
			rep.Flushes++
			rep.FlushTrees += e.Get("trees")
			rep.FlushStates += e.Get("states")
			rep.FlushDead += e.Get("dead")
		case obs.EvStop:
			rep.HasStop = true
			rep.StopTrees = e.Get("trees")
			rep.StopStates = e.Get("states")
		case obs.EvPanic:
			rep.Panics++
		case obs.EvHTTPStart:
			reqn := e.Get("reqn")
			if _, dup := httpBegins[reqn]; dup {
				rep.Audit = append(rep.Audit, fmt.Sprintf(
					"duplicate http-begin for request serial %d", reqn))
			}
			httpBegins[reqn] = httpOpen{ts: e.TS, route: e.GetStr("route"), req: e.GetStr("req")}
		case obs.EvHTTPEnd:
			reqn := e.Get("reqn")
			open, ok := httpBegins[reqn]
			if !ok {
				rep.Audit = append(rep.Audit, fmt.Sprintf(
					"http-end for request serial %d with no http-begin", reqn))
				continue
			}
			delete(httpBegins, reqn)
			completed = append(completed, RequestSpan{
				ReqID:  open.req,
				Route:  open.route,
				Status: e.Get("status"),
				Serial: reqn,
				Start:  open.ts,
				End:    e.TS,
			})
		case obs.EvJobSubmit:
			j := jobAt(e.GetStr("job"))
			j.submit, j.hasSubmit = e.TS, true
			j.req, j.reqn = e.GetStr("req"), e.Get("reqn")
		case obs.EvJobStart:
			j := jobAt(e.GetStr("job"))
			if !j.hasSubmit {
				rep.Audit = append(rep.Audit, fmt.Sprintf(
					"job-begin for %s with no job-submit", j.id))
			}
			j.begin, j.hasBegin = e.TS, true
		case obs.EvJobEnd:
			// A job may legitimately end without ever beginning (cancelled
			// while still queued), but never without a submission.
			j := jobAt(e.GetStr("job"))
			if !j.hasSubmit {
				rep.Audit = append(rep.Audit, fmt.Sprintf(
					"job-end for %s with no job-submit", j.id))
			}
			j.end, j.hasEnd = e.TS, true
		}
	}

	// Link completed requests to the jobs they submitted (shared request
	// serial) and fold the serving-path distributions.
	jobByReqn := map[int64]*jobSpan{}
	for _, id := range jobOrder {
		if j := jobByID[id]; j.reqn != 0 {
			jobByReqn[j.reqn] = j
		}
	}
	for i := range completed {
		if j := jobByReqn[completed[i].Serial]; j != nil {
			completed[i].JobID = j.id
			if j.hasSubmit && j.hasBegin {
				completed[i].QueueWait = j.begin - j.submit
			}
			if j.hasBegin && j.hasEnd {
				completed[i].Exec = j.end - j.begin
			}
		}
	}
	rep.HTTPSpans = int64(len(completed))
	rep.OpenHTTP = int64(len(httpBegins))
	rep.JobSpans = int64(len(jobOrder))

	if len(completed) > 0 {
		byRoute := map[string][]float64{}
		errs := map[string]int64{}
		for i := range completed {
			s := &completed[i]
			byRoute[s.Route] = append(byRoute[s.Route], float64(s.Latency()))
			if s.Status >= 500 {
				errs[s.Route]++
			}
		}
		routes := make([]string, 0, len(byRoute))
		for route := range byRoute {
			routes = append(routes, route)
		}
		sort.Strings(routes)
		for _, route := range routes {
			rep.ByRoute = append(rep.ByRoute, RouteStat{
				Route:   route,
				N:       int64(len(byRoute[route])),
				Errors:  errs[route],
				Latency: stats.Summarize(byRoute[route]),
			})
		}
		slow := append([]RequestSpan(nil), completed...)
		sort.Slice(slow, func(i, j int) bool {
			if d := slow[i].Latency() - slow[j].Latency(); d != 0 {
				return d > 0
			}
			return slow[i].Serial < slow[j].Serial
		})
		if len(slow) > slowestCap {
			slow = slow[:slowestCap]
		}
		rep.Slowest = slow
	}
	var qwaits, execs []float64
	for _, id := range jobOrder {
		j := jobByID[id]
		if j.hasSubmit && j.hasBegin {
			qwaits = append(qwaits, float64(j.begin-j.submit))
		}
		if j.hasBegin && j.hasEnd {
			execs = append(execs, float64(j.end-j.begin))
		}
	}
	rep.JobQueueWait = stats.Summarize(qwaits)
	rep.JobExec = stats.Summarize(execs)

	// Close spans a stopped run left open, charging busy time to trace end.
	for _, w := range ws {
		for _, since := range w.openSince {
			w.Busy += rep.LastTS - since
			rep.OpenSpans++
		}
	}

	span := rep.Span()
	ids := make([]int, 0, len(ws))
	for id := range ws {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	var busySum, busyMax int64
	for _, id := range ids {
		w := ws[id]
		if span > 0 {
			w.Utilization = float64(w.Busy) / float64(span)
		}
		busySum += w.Busy
		if w.Busy > busyMax {
			busyMax = w.Busy
		}
		rep.ByWorker = append(rep.ByWorker, w.WorkerStat)
	}
	if busySum > 0 && len(ids) > 0 {
		rep.Imbalance = float64(busyMax) * float64(len(ids)) / float64(busySum)
	}

	rep.StealLatency = stats.Summarize(latencies)

	// Conservation checks across the whole trace.
	if rep.TaskBegins != rep.TaskEnds+rep.OpenSpans {
		rep.Audit = append(rep.Audit, fmt.Sprintf(
			"span imbalance: %d begins vs %d ends + %d open",
			rep.TaskBegins, rep.TaskEnds, rep.OpenSpans))
	}
	if rep.Steals > rep.Submits {
		rep.Audit = append(rep.Audit, fmt.Sprintf(
			"more steals (%d) than submissions (%d)", rep.Steals, rep.Submits))
	}
	if rep.HasStop {
		if rep.FlushTrees < rep.StopTrees || rep.FlushStates < rep.StopStates {
			rep.Audit = append(rep.Audit, fmt.Sprintf(
				"stop snapshot (trees %d, states %d) exceeds flushed totals (trees %d, states %d)",
				rep.StopTrees, rep.StopStates, rep.FlushTrees, rep.FlushStates))
		}
	}
	return rep
}

// WriteMarkdown renders the report. Output is deterministic for a given
// trace: workers sorted by id, fixed-precision numbers.
func (r *TraceReport) WriteMarkdown(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "# Scheduler trace report\n\n")
	fmt.Fprintf(&b, "- events: %d\n", r.Events)
	fmt.Fprintf(&b, "- span: %d %s (ts %d..%d)\n", r.Span(), r.Units, r.FirstTS, r.LastTS)
	fmt.Fprintf(&b, "- tasks: %d begun, %d ended, %d left open\n",
		r.TaskBegins, r.TaskEnds, r.OpenSpans)
	fmt.Fprintf(&b, "- queue: %d submitted, %d stolen\n", r.Submits, r.Steals)
	fmt.Fprintf(&b, "- flushes: %d (trees %d, states %d, dead-ends %d)\n",
		r.Flushes, r.FlushTrees, r.FlushStates, r.FlushDead)
	if r.HasStop {
		fmt.Fprintf(&b, "- stop rule fired at trees %d, states %d\n",
			r.StopTrees, r.StopStates)
	}
	if r.Panics > 0 {
		fmt.Fprintf(&b, "- worker panics: %d\n", r.Panics)
	}

	fmt.Fprintf(&b, "\n## Per-worker utilization\n\n")
	if len(r.ByWorker) == 0 {
		fmt.Fprintf(&b, "(no task spans in trace)\n")
	} else {
		fmt.Fprintf(&b, "| worker | tasks | steals | busy (%s) | utilization |\n", r.Units)
		fmt.Fprintf(&b, "|---|---|---|---|---|\n")
		for _, w := range r.ByWorker {
			fmt.Fprintf(&b, "| %d | %d | %d | %d | %.1f%% |\n",
				w.ID, w.Tasks, w.Steals, w.Busy, 100*w.Utilization)
		}
		fmt.Fprintf(&b, "\nLoad imbalance (max/mean busy): %.2f\n", r.Imbalance)
	}

	fmt.Fprintf(&b, "\n## Steal latency (submit to steal, %s)\n\n", r.Units)
	if r.StealLatency.N == 0 {
		fmt.Fprintf(&b, "(no submit/steal pairs in trace)\n")
	} else {
		s := r.StealLatency
		fmt.Fprintf(&b, "| n | min | q1 | median | q3 | max | mean |\n")
		fmt.Fprintf(&b, "|---|---|---|---|---|---|---|\n")
		fmt.Fprintf(&b, "| %d | %.0f | %.1f | %.1f | %.1f | %.0f | %.2f |\n",
			s.N, s.Min, s.Q1, s.Median, s.Q3, s.Max, s.Mean)
	}

	if r.HTTPSpans > 0 || r.OpenHTTP > 0 || r.JobSpans > 0 {
		fmt.Fprintf(&b, "\n## Request spans\n\n")
		fmt.Fprintf(&b, "- http requests: %d completed, %d still in flight at trace end\n",
			r.HTTPSpans, r.OpenHTTP)
		fmt.Fprintf(&b, "- jobs with serving spans: %d\n", r.JobSpans)
		if len(r.ByRoute) > 0 {
			fmt.Fprintf(&b, "\n### Per-route latency (%s)\n\n", r.Units)
			fmt.Fprintf(&b, "| route | n | 5xx | min | q1 | median | q3 | max | mean |\n")
			fmt.Fprintf(&b, "|---|---|---|---|---|---|---|---|---|\n")
			for _, rt := range r.ByRoute {
				s := rt.Latency
				fmt.Fprintf(&b, "| %s | %d | %d | %.0f | %.1f | %.1f | %.1f | %.0f | %.2f |\n",
					rt.Route, rt.N, rt.Errors, s.Min, s.Q1, s.Median, s.Q3, s.Max, s.Mean)
			}
		}
		if r.JobQueueWait.N > 0 || r.JobExec.N > 0 {
			fmt.Fprintf(&b, "\n### Job phase breakdown (%s)\n\n", r.Units)
			fmt.Fprintf(&b, "| phase | n | min | median | max | mean |\n")
			fmt.Fprintf(&b, "|---|---|---|---|---|---|\n")
			for _, row := range []struct {
				name string
				s    stats.Summary
			}{{"queue-wait", r.JobQueueWait}, {"exec", r.JobExec}} {
				fmt.Fprintf(&b, "| %s | %d | %.0f | %.1f | %.0f | %.2f |\n",
					row.name, row.s.N, row.s.Min, row.s.Median, row.s.Max, row.s.Mean)
			}
		}
		if len(r.Slowest) > 0 {
			fmt.Fprintf(&b, "\n### Slowest requests\n\n")
			fmt.Fprintf(&b, "| req | route | status | latency (%s) | job | queue-wait | exec |\n", r.Units)
			fmt.Fprintf(&b, "|---|---|---|---|---|---|---|\n")
			for i := range r.Slowest {
				s := &r.Slowest[i]
				job := s.JobID
				if job == "" {
					job = "-"
				}
				fmt.Fprintf(&b, "| %s | %s | %d | %d | %s | %d | %d |\n",
					s.ReqID, s.Route, s.Status, s.Latency(), job, s.QueueWait, s.Exec)
			}
		}
	}

	fmt.Fprintf(&b, "\n## Conservation audit\n\n")
	if len(r.Audit) == 0 {
		fmt.Fprintf(&b, "clean: spans balanced, every steal matches a submission, "+
			"flushed totals cover the stop snapshot\n")
	} else {
		for _, a := range r.Audit {
			fmt.Fprintf(&b, "- VIOLATION: %s\n", a)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}
