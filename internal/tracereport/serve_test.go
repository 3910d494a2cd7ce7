// Golden tests for the serving-path trace pipeline: a deterministic
// synthetic HTTP/job trace must regenerate byte-identically, the analyzer
// must reconstruct request→job spans from it, and the Chrome export must
// carry the async request/job spans and flow arrows. Regenerate with
// `go test ./internal/tracereport -run Serve -update`.
package tracereport_test

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"gentrius/internal/obs"
	"gentrius/internal/tracereport"
)

const (
	serveTrace  = goldenDir + "serve_small.trace.jsonl"
	serveReport = goldenDir + "serve_small.report.md"
)

// genServeTrace hand-stamps a small serving-path scenario: three submits
// (one failing with a 5xx), one stats call, two jobs running back to back
// on the pool, one in-flight request left open, and a worker task span
// interleaved — everything Analyze and WriteChromeTrace must correlate.
func genServeTrace(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	rec := obs.NewRecorder(&buf, nil)
	emit := rec.EmitAtTagged

	emit(100, obs.EvHTTPStart, -1, []obs.SField{obs.S("req", "demo"), obs.S("route", "submit")},
		obs.F("reqn", 1))
	emit(150, obs.EvJobSubmit, -1, []obs.SField{obs.S("job", "j000001"), obs.S("req", "demo")},
		obs.F("jobn", 1), obs.F("reqn", 1))
	emit(200, obs.EvHTTPEnd, -1, []obs.SField{obs.S("req", "demo")},
		obs.F("reqn", 1), obs.F("status", 201), obs.F("bytes_in", 180), obs.F("bytes_out", 64))
	emit(300, obs.EvJobStart, -1, []obs.SField{obs.S("job", "j000001")}, obs.F("jobn", 1))
	emit(310, obs.EvTaskStart, 0, nil, obs.F("task", 101))
	emit(400, obs.EvHTTPStart, -1, []obs.SField{obs.S("req", "r2"), obs.S("route", "stats")},
		obs.F("reqn", 2))
	emit(430, obs.EvHTTPEnd, -1, []obs.SField{obs.S("req", "r2")},
		obs.F("reqn", 2), obs.F("status", 200), obs.F("bytes_out", 240))
	emit(500, obs.EvHTTPStart, -1, []obs.SField{obs.S("req", "r3"), obs.S("route", "submit")},
		obs.F("reqn", 3))
	emit(540, obs.EvJobSubmit, -1, []obs.SField{obs.S("job", "j000002"), obs.S("req", "r3")},
		obs.F("jobn", 2), obs.F("reqn", 3))
	emit(560, obs.EvHTTPEnd, -1, []obs.SField{obs.S("req", "r3")},
		obs.F("reqn", 3), obs.F("status", 201), obs.F("bytes_in", 150), obs.F("bytes_out", 64))
	emit(600, obs.EvHTTPStart, -1, []obs.SField{obs.S("req", "r4"), obs.S("route", "submit")},
		obs.F("reqn", 4))
	emit(620, obs.EvHTTPEnd, -1, []obs.SField{obs.S("req", "r4")},
		obs.F("reqn", 4), obs.F("status", 500), obs.F("bytes_out", 32))
	emit(880, obs.EvTaskEnd, 0, nil)
	emit(900, obs.EvJobEnd, -1, []obs.SField{obs.S("job", "j000001"), obs.S("stop", "exhausted")},
		obs.F("jobn", 1), obs.F("trees", 12))
	emit(950, obs.EvJobStart, -1, []obs.SField{obs.S("job", "j000002")}, obs.F("jobn", 2))
	emit(1400, obs.EvJobEnd, -1, []obs.SField{obs.S("job", "j000002"), obs.S("stop", "exhausted")},
		obs.F("jobn", 2), obs.F("trees", 3))
	emit(1500, obs.EvHTTPStart, -1, []obs.SField{obs.S("req", "r5"), obs.S("route", "stream")},
		obs.F("reqn", 5))

	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestServeGoldenTraceRegenerates(t *testing.T) {
	got := genServeTrace(t)
	if *update {
		if err := os.WriteFile(serveTrace, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(serveTrace)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("regenerated serve trace differs from %s (%d vs %d bytes); "+
			"run with -update if the event format intentionally changed",
			serveTrace, len(got), len(want))
	}
}

func TestServeAnalyze(t *testing.T) {
	events, err := tracereport.ReadTrace(bytes.NewReader(genServeTrace(t)))
	if err != nil {
		t.Fatal(err)
	}
	rep := tracereport.Analyze(events, "ns")
	if len(rep.Audit) != 0 {
		t.Fatalf("serve trace fails audit: %v", rep.Audit)
	}
	if rep.HTTPSpans != 4 || rep.OpenHTTP != 1 || rep.JobSpans != 2 {
		t.Fatalf("span counts: http=%d open=%d job=%d",
			rep.HTTPSpans, rep.OpenHTTP, rep.JobSpans)
	}
	if len(rep.ByRoute) != 2 ||
		rep.ByRoute[0].Route != "stats" || rep.ByRoute[0].N != 1 ||
		rep.ByRoute[1].Route != "submit" || rep.ByRoute[1].N != 3 ||
		rep.ByRoute[1].Errors != 1 {
		t.Fatalf("per-route stats: %+v", rep.ByRoute)
	}
	var demo *tracereport.RequestSpan
	for i := range rep.Slowest {
		if rep.Slowest[i].ReqID == "demo" {
			demo = &rep.Slowest[i]
		}
	}
	if demo == nil {
		t.Fatalf("request demo missing from slowest table: %+v", rep.Slowest)
	}
	if demo.JobID != "j000001" || demo.QueueWait != 150 || demo.Exec != 600 ||
		demo.Latency() != 100 {
		t.Fatalf("demo span not linked to its job: %+v", demo)
	}
	if rep.JobQueueWait.N != 2 || rep.JobExec.N != 2 {
		t.Fatalf("job phase summaries: wait=%+v exec=%+v",
			rep.JobQueueWait, rep.JobExec)
	}
}

func TestServeGoldenReport(t *testing.T) {
	events, err := tracereport.ReadTrace(bytes.NewReader(genServeTrace(t)))
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := tracereport.Analyze(events, "ns").WriteMarkdown(&got); err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(serveReport, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(serveReport)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("report differs from %s; run with -update if the analyzer "+
			"intentionally changed.\n--- got ---\n%s", serveReport, got.String())
	}
}

func TestServeChromeTraceExport(t *testing.T) {
	events, err := tracereport.ReadTrace(bytes.NewReader(genServeTrace(t)))
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
		t.Fatal("serve Chrome export is not deterministic")
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(a.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	asyncB, asyncE, flowS, flowF := 0, 0, 0, 0
	tracks := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "b":
			asyncB++
		case "e":
			asyncE++
		case "s":
			if ev["cat"] == "request-flow" {
				flowS++
			}
		case "f":
			if ev["cat"] == "request-flow" {
				flowF++
			}
		case "M":
			if ev["name"] == "thread_name" {
				if args, ok := ev["args"].(map[string]any); ok {
					tracks[args["name"].(string)] = true
				}
			}
		}
	}
	// 5 request begins (one left in flight) plus 2 queue-wait and 2 exec
	// spans per job; only the in-flight request lacks its closing event.
	if asyncB != 9 || asyncE != 8 {
		t.Fatalf("async span events: %d b, %d e (want 9/8)", asyncB, asyncE)
	}
	if flowS != 2 || flowF != 2 {
		t.Fatalf("request flow arrows: %d s, %d f (want 2/2)", flowS, flowF)
	}
	if !tracks["http"] || !tracks["jobs"] || !tracks["worker 0"] {
		t.Fatalf("missing named tracks: %v", tracks)
	}
}
