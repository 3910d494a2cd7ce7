// End-to-end tests of the serving-path observability: request-id
// propagation from the HTTP edge through the journal, per-job metrics and
// the trace stream, plus race hammering of the read endpoints while jobs
// complete and cancel underneath them.
package service

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"gentrius"
	"gentrius/internal/obs"
	"gentrius/internal/tracereport"
)

// syncBuffer is a bytes.Buffer safe to read while other goroutines (the
// trace recorder, slog) are still writing.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) Bytes() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]byte(nil), s.b.Bytes()...)
}

func (s *syncBuffer) String() string { return string(s.Bytes()) }

// TestRequestIDPropagation is the ISSUE's acceptance scenario: a submission
// carrying X-Request-Id: demo must surface that id in the response header,
// the job status, the access log, the journal, the per-job metric labels,
// and as a linked request→job span chain in the trace.
func TestRequestIDPropagation(t *testing.T) {
	reg := obs.NewRegistry()
	var traceBuf, logBuf syncBuffer
	trace := obs.NewRecorder(&traceBuf, obs.WallClock(time.Now()))
	dir := t.TempDir()
	m := newTestManager(t, Config{
		Workers:    1,
		Checkpoint: true,
		DataDir:    dir,
		Metrics:    NewMetrics(reg),
		Logger:     slog.New(slog.NewTextHandler(&logBuf, nil)),
		Sink:       &gentrius.ObsSink{Trace: trace},
	})
	mux := http.NewServeMux()
	m.RegisterRoutes(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	var body bytes.Buffer
	if err := json.NewEncoder(&body).Encode(smallRequest()); err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, srv.URL+"/jobs", &body)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", "demo")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-Id"); got != "demo" {
		t.Fatalf("response X-Request-Id = %q, want demo", got)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.RequestID != "demo" {
		t.Fatalf("status request_id = %q, want demo", st.RequestID)
	}

	job, ok := m.Get(st.ID)
	if !ok {
		t.Fatalf("job %s not found", st.ID)
	}
	waitDone(t, job)

	// Journal: the submit record carries the request id, so a recovered
	// daemon keeps the correlation.
	journal, err := os.ReadFile(filepath.Join(dir, "journal.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(journal), `"req_id":"demo"`) {
		t.Fatalf("journal lacks req_id=demo:\n%s", journal)
	}

	// The request id stays on the job, and out of the metric labels.
	if got := job.Status().RequestID; got != "demo" {
		t.Fatalf("job request id = %q, want demo", got)
	}
	var prom bytes.Buffer
	reg.WritePrometheus(&prom)
	if strings.Contains(prom.String(), "demo") || strings.Contains(prom.String(), st.ID) {
		t.Fatalf("metrics carry a request or job id:\n%s", prom.String())
	}

	// Access log and job lifecycle log both carry req=demo.
	if logs := logBuf.String(); !strings.Contains(logs, "req=demo") {
		t.Fatalf("logs lack req=demo:\n%s", logs)
	}

	// Trace: the middleware emits http-end after the handler returns, which
	// can trail the client's view of the response — poll briefly.
	deadline := time.Now().Add(5 * time.Second)
	var events []tracereport.TraceEvent
	for {
		trace.Flush() //nolint:errcheck // the recorder buffers; drain before reading
		events, err = tracereport.ReadTrace(bytes.NewReader(traceBuf.Bytes()))
		if err == nil && hasServingChain(events) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace never completed the serving chain (err=%v):\n%s", err, traceBuf.String())
		}
		time.Sleep(10 * time.Millisecond)
	}

	rep := tracereport.Analyze(events, "ns")
	if len(rep.Audit) != 0 {
		t.Fatalf("trace audit: %v", rep.Audit)
	}
	var span *tracereport.RequestSpan
	for i := range rep.Slowest {
		if rep.Slowest[i].ReqID == "demo" {
			span = &rep.Slowest[i]
		}
	}
	if span == nil {
		t.Fatalf("no request span for demo in %+v", rep.Slowest)
	}
	if span.Route != "submit" {
		t.Errorf("span route = %q, want submit", span.Route)
	}
	if span.JobID != st.ID {
		t.Errorf("span job = %q, want %s (request→job link broken)", span.JobID, st.ID)
	}
	if span.Exec <= 0 {
		t.Errorf("span exec = %d, want > 0", span.Exec)
	}
	if span.QueueWait < 0 {
		t.Errorf("span queue wait = %d, want >= 0", span.QueueWait)
	}

	// The Perfetto export renders the chain: an async "http submit" span,
	// the job's queue-wait/exec spans, and a request flow arrow.
	var chrome bytes.Buffer
	if err := tracereport.WriteChromeTrace(&chrome, events, 1000); err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{`"http submit"`, `"queue-wait"`, `"exec"`, `"request-flow"`} {
		if !strings.Contains(chrome.String(), frag) {
			t.Errorf("chrome trace lacks %s", frag)
		}
	}
}

// hasServingChain reports whether the trace holds the full
// http-begin→job-submit→job-begin→job-end→http-end chain for req demo.
func hasServingChain(events []tracereport.TraceEvent) bool {
	seen := map[string]bool{}
	for i := range events {
		e := &events[i]
		switch e.Ev {
		case obs.EvHTTPStart, obs.EvHTTPEnd,
			obs.EvJobSubmit, obs.EvJobStart, obs.EvJobEnd:
			if e.GetStr("req") == "demo" {
				seen[e.Ev] = true
			}
		}
	}
	return seen[obs.EvHTTPStart] && seen[obs.EvHTTPEnd] &&
		seen[obs.EvJobSubmit] && seen[obs.EvJobStart] && seen[obs.EvJobEnd]
}

// TestStatsAndHealthRaceWithJobChurn hammers the read endpoints while jobs
// complete and cancel concurrently. Run under -race it proves the stats
// and health paths take consistent snapshots of mutating job state.
func TestStatsAndHealthRaceWithJobChurn(t *testing.T) {
	reg := obs.NewRegistry()
	m := newTestManager(t, Config{Workers: 2, QueueCap: 64, Checkpoint: true, Metrics: NewMetrics(reg)})
	mux := http.NewServeMux()
	m.RegisterRoutes(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	var (
		idMu sync.Mutex
		ids  []string
	)
	pickID := func(n int) (string, bool) {
		idMu.Lock()
		defer idMu.Unlock()
		if len(ids) == 0 {
			return "", false
		}
		return ids[n%len(ids)], true
	}

	hit := func(t *testing.T, path string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Error(err)
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: %d", path, resp.StatusCode)
		}
	}

	var wg sync.WaitGroup
	// Churn writer: submit small jobs (they finish in milliseconds) and
	// cancel every other one mid-flight.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 30; i++ {
			var body bytes.Buffer
			json.NewEncoder(&body).Encode(smallRequest()) //nolint:errcheck
			resp, err := http.Post(srv.URL+"/jobs", "application/json", &body)
			if err != nil {
				t.Error(err)
				return
			}
			var st Status
			json.NewDecoder(resp.Body).Decode(&st) //nolint:errcheck
			resp.Body.Close()
			if st.ID == "" {
				continue
			}
			idMu.Lock()
			ids = append(ids, st.ID)
			idMu.Unlock()
			if i%2 == 1 {
				resp, err := http.Post(srv.URL+"/jobs/"+st.ID+"/cancel", "application/json", nil)
				if err == nil {
					resp.Body.Close()
				}
			}
		}
	}()
	// Readers: stats for a churning job, plus health (which aggregates all
	// job states), racing the completions and cancellations above.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 150; i++ {
				if id, ok := pickID(r + i); ok {
					hit(t, "/jobs/"+id+"/stats")
				}
				hit(t, "/healthz")
			}
		}(r)
	}
	wg.Wait()
}
