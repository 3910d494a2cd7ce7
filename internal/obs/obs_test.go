package obs

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c_total", "a counter")
	g := reg.Gauge("g", "a gauge")
	c.Inc()
	c.Add(4)
	g.Set(7)
	g.Set(5)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	if g.Value() != 5 {
		t.Fatalf("gauge = %d, want 5", g.Value())
	}
}

func TestNilInstrumentsAreNoOps(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var r *Recorder
	c.Inc()
	c.Add(3)
	g.Set(1)
	h.Observe(1)
	r.Emit(EvSteal, 0)
	r.EmitAt(1, EvFlush, 0, F("n", 2))
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || r.Events() != 0 {
		t.Fatal("nil instruments recorded something")
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	var s *Sink
	if s.SchedMetrics() == nil {
		t.Fatal("nil sink must yield a usable no-op metric set")
	}
	s.SchedMetrics().TasksStolen.Inc() // must not panic
	s.SchedMetrics().EnsureWorkers(4)
	s.SchedMetrics().Worker(2).Trees.Add(1)
}

// TestHistogramBucketing pins the cumulative bucket assignment: bounds are
// inclusive upper limits, values above the last bound land in +Inf.
func TestHistogramBucketing(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("h", "sizes", []float64{1, 2, 4, 8})
	for _, v := range []float64{0.5, 1, 1.5, 2, 3, 8, 9, 100} {
		h.Observe(v)
	}
	got := h.BucketCounts()
	want := []int64{2, 2, 1, 1, 2} // (..1], (1..2], (2..4], (4..8], +Inf
	if len(got) != len(want) {
		t.Fatalf("bucket count %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("buckets = %v, want %v", got, want)
		}
	}
	if h.Count() != 8 {
		t.Fatalf("count = %d, want 8", h.Count())
	}
	if h.Sum() != 0.5+1+1.5+2+3+8+9+100 {
		t.Fatalf("sum = %g", h.Sum())
	}
}

func TestHistogramEdgeCases(t *testing.T) {
	reg := NewRegistry()
	// Single bucket: everything at or below lands in it.
	h1 := reg.Histogram("h1", "", []float64{10})
	h1.Observe(10)
	h1.Observe(10.0001)
	if got := h1.BucketCounts(); got[0] != 1 || got[1] != 1 {
		t.Fatalf("single-bucket counts = %v", got)
	}
	// All-equal observations concentrate in one bucket.
	h2 := reg.Histogram("h2", "", ExpBuckets(1, 2, 8))
	for i := 0; i < 5; i++ {
		h2.Observe(4)
	}
	got := h2.BucketCounts()
	if got[2] != 5 { // bounds 1,2,4,...: 4 <= bounds[2]
		t.Fatalf("all-equal counts = %v", got)
	}
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(1, 2, 4)
	want := []float64{1, 2, 4, 8}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("ExpBuckets = %v, want %v", b, want)
		}
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("hc", "", []float64{1, 10, 100})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(float64(i % 200))
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("count = %d, want 8000", h.Count())
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("app_things_total", "things done")
	g := reg.Gauge("app_depth", "queue depth")
	h := reg.Histogram("app_sizes", "sizes", []float64{1, 2})
	lc := reg.Counter(`app_worker_total{worker="0"}`, "per worker")
	c.Add(3)
	g.Set(2)
	h.Observe(1)
	h.Observe(5)
	lc.Inc()

	var b bytes.Buffer
	reg.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"# HELP app_things_total things done",
		"# TYPE app_things_total counter",
		"app_things_total 3",
		"# TYPE app_depth gauge",
		"app_depth 2",
		"# TYPE app_sizes histogram",
		`app_sizes_bucket{le="1"} 1`,
		`app_sizes_bucket{le="2"} 1`,
		`app_sizes_bucket{le="+Inf"} 2`,
		"app_sizes_sum 6",
		"app_sizes_count 2",
		`app_worker_total{worker="0"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "{}") {
		t.Fatalf("exposition contains empty label braces:\n%s", out)
	}
	// Snapshot holds the same values, a histogram as its _count and _sum.
	if snap := reg.Snapshot(); snap["app_depth"] != 2 || snap["app_sizes_count"] != 2 || snap["app_sizes_sum"] != 6 {
		t.Fatalf("snapshot %v", snap)
	}
}

// TestRegisterTwice: a second registration of a name with the same type
// returns the first instrument (how labelled families look a series up)
// and renders it once; the same name under another type panics.
func TestRegisterTwice(t *testing.T) {
	reg := NewRegistry()
	name := `app_retry_total{site="spool"}`
	c := reg.Counter(name, "retries")
	c.Inc()
	if again := reg.Counter(name, "ignored"); again != c {
		t.Fatal("second Counter registration returned a new instrument")
	}
	h := reg.Histogram("app_latency", "", []float64{1, 2})
	if reg.Histogram("app_latency", "", []float64{1, 2}) != h {
		t.Fatal("second Histogram registration returned a new instrument")
	}
	var b bytes.Buffer
	reg.WritePrometheus(&b)
	if n := strings.Count(b.String(), name+" 1\n"); n != 1 {
		t.Fatalf("series rendered %d times:\n%s", n, b.String())
	}

	defer func() {
		if recover() == nil {
			t.Fatal("one name under two types must panic")
		}
	}()
	reg.Gauge(name, "retries")
}

func TestSchedMetricsRegistersAndSnapshots(t *testing.T) {
	reg := NewRegistry()
	m := NewSchedMetrics(reg)
	m.TasksStolen.Add(3)
	m.QueueDepth.Set(1)
	m.EnsureWorkers(2)
	m.EnsureWorkers(2) // idempotent
	m.Worker(0).Trees.Add(10)
	m.Worker(1).Trees.Add(5)
	if m.Worker(99).Trees != nil {
		t.Fatal("out-of-range worker must be a no-op triple")
	}
	snap := reg.Snapshot()
	if snap["gentrius_tasks_stolen_total"] != 3 {
		t.Fatalf("snapshot stolen = %v", snap["gentrius_tasks_stolen_total"])
	}
	if snap[`gentrius_worker_stand_trees_total{worker="0"}`] != 10 {
		t.Fatalf("snapshot worker trees = %v", snap)
	}
}

func TestRecorderJSONLAndCounts(t *testing.T) {
	var b bytes.Buffer
	r := NewRecorder(&b, nil)
	r.EmitAt(5, EvTaskSubmit, 1, F("taxon", 7), F("branches", 3))
	r.EmitAt(6, EvSteal, 2)
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines", len(lines))
	}
	var ev map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &ev); err != nil {
		t.Fatalf("line not valid JSON: %v\n%s", err, lines[0])
	}
	if ev["ts"] != float64(5) || ev["ev"] != EvTaskSubmit || ev["w"] != float64(1) ||
		ev["taxon"] != float64(7) || ev["branches"] != float64(3) {
		t.Fatalf("decoded event %v", ev)
	}
	if r.Events() != 2 || r.CountOf(EvSteal) != 1 || r.CountOf(EvFlush) != 0 {
		t.Fatalf("event counts: total %d steal %d", r.Events(), r.CountOf(EvSteal))
	}
}

func TestRecorderWallClock(t *testing.T) {
	var b bytes.Buffer
	r := NewRecorder(&b, WallClock(time.Now().Add(-time.Second)))
	r.Emit(EvStop, 0)
	r.Flush()
	var ev map[string]any
	if err := json.Unmarshal(b.Bytes(), &ev); err != nil {
		t.Fatal(err)
	}
	if ev["ts"].(float64) < float64(time.Second/2) {
		t.Fatalf("wall timestamp too small: %v", ev["ts"])
	}
}

func TestHTTPEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("probe_total", "probe").Add(9)
	srv, addr, err := StartServer("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	get := func(path string) string {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return buf.String()
	}
	if out := get("/metrics"); !strings.Contains(out, "probe_total 9") {
		t.Fatalf("/metrics missing counter:\n%s", out)
	}
	if out := get("/debug/pprof/"); !strings.Contains(out, "goroutine") {
		t.Fatalf("/debug/pprof/ not pprof index:\n%s", out)
	}
}

func TestProgressReporter(t *testing.T) {
	var mu sync.Mutex
	var b bytes.Buffer
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return b.Write(p)
	})
	reg := NewRegistry()
	m := NewSchedMetrics(reg)
	m.Trees.Add(50)
	stop := StartProgress(w, 10*time.Millisecond, ProgressFromMetrics(m, nil, 1000, 0))
	defer stop()
	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		out := b.String()
		mu.Unlock()
		if strings.Contains(out, "trees 50") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no progress line within deadline; got %q", out)
		}
		time.Sleep(5 * time.Millisecond)
	}
	stop()
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

func TestEtaSeconds(t *testing.T) {
	p := Progress{Trees: 500, MaxTrees: 1000, States: 10, MaxStates: -1}
	eta, ok := etaSeconds(p, 50, 100)
	if !ok || eta != 10 {
		t.Fatalf("eta = %v, %v; want 10s", eta, ok)
	}
	if _, ok := etaSeconds(Progress{}, 10, 10); ok {
		t.Fatal("no limits must yield no ETA")
	}
	// Nearest limit wins.
	p2 := Progress{Trees: 0, MaxTrees: 1000, States: 0, MaxStates: 100}
	eta2, ok := etaSeconds(p2, 10, 10)
	if !ok || eta2 != 10 {
		t.Fatalf("eta2 = %v, %v; want 10 (state limit)", eta2, ok)
	}
}

func TestBucketQuantile(t *testing.T) {
	bounds := []float64{1, 2, 4, 8}
	counts := []int64{0, 10, 0, 0, 0} // all mass in (1,2]
	if q := bucketQuantile(0.5, bounds, counts); q < 1 || q > 2 {
		t.Fatalf("median = %v, want inside (1,2]", q)
	}
	// +Inf mass clamps to the top finite bound.
	counts = []int64{0, 0, 0, 0, 5}
	if q := bucketQuantile(0.99, bounds, counts); q != 8 {
		t.Fatalf("quantile with +Inf mass = %v, want 8", q)
	}
	if q := bucketQuantile(0.5, bounds, []int64{0, 0, 0, 0, 0}); q != 0 {
		t.Fatalf("empty histogram quantile = %v, want 0", q)
	}
}

func TestHistogramQuantile(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("hq", "", []float64{1, 10, 100})
	for i := 0; i < 90; i++ {
		h.Observe(5)
	}
	for i := 0; i < 10; i++ {
		h.Observe(50)
	}
	if q := h.Quantile(0.5); q < 1 || q > 10 {
		t.Fatalf("p50 = %v, want inside (1,10]", q)
	}
	if q := h.Quantile(0.99); q < 10 || q > 100 {
		t.Fatalf("p99 = %v, want inside (10,100]", q)
	}
	var nilH *Histogram
	if nilH.Quantile(0.5) != 0 {
		t.Fatal("nil histogram quantile must be 0")
	}
}
