package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

const ms = time.Millisecond

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "pass", Start: 0, End: 100 * ms, Parent: -1},
		// nested: job covers 10..60, its call covers 20..50
		{Name: "job", Start: 10 * ms, End: 60 * ms, Parent: 0},
		{Name: "call", Start: 20 * ms, End: 50 * ms, Parent: 1},
		// overlapping sibling of the first job: 40..90
		{Name: "job", Start: 40 * ms, End: 90 * ms, Parent: 0},
		// a child that sticks out of its parent is clipped to it
		{Name: "late", Start: 80 * ms, End: 120 * ms, Parent: 3},
	}
	self := selfTimes(spans)
	want := map[string]time.Duration{
		"pass": 20 * ms,        // 100 minus the union 10..90
		"job":  (20 + 40) * ms, // 50-30, and 50 minus the clipped 80..90
		"call": 30 * ms,        // a leaf keeps all of its time
		"late": 40 * ms,        // clipping affects the parent only
	}
	for name, w := range want {
		if self[name] != w {
			t.Errorf("self time of %s = %v, want %v", name, self[name], w)
		}
	}
}

func TestSelfTimeOfContainedChildren(t *testing.T) {
	// A child wholly inside an earlier, longer sibling adds no cover.
	spans := []span{
		{Name: "p", Start: 0, End: 10 * ms, Parent: -1},
		{Name: "c", Start: 1 * ms, End: 9 * ms, Parent: 0},
		{Name: "c", Start: 2 * ms, End: 3 * ms, Parent: 0},
	}
	if got := selfTimes(spans)["p"]; got != 2*ms {
		t.Errorf("self = %v, want 2ms", got)
	}
}

func TestTracerNilAndChild(t *testing.T) {
	var none *tracer
	id := none.begin("x", -1, 0)
	none.end(id)
	none.child(id, "y", ms)

	tr := newTracer()
	p := tr.begin("wait", -1, 7)
	time.Sleep(2 * ms)
	tr.end(p)
	tr.child(p, "queue", time.Hour) // longer than the parent: clipped
	c := tr.spans[1]
	if c.Parent != p || c.Op != 7 || c.Start != tr.spans[p].Start || c.End != tr.spans[p].End {
		t.Errorf("child span %+v of %+v", c, tr.spans[p])
	}
	if self := selfTimes(tr.spans); self["wait"] != 0 {
		t.Errorf("parent fully covered, self = %v", self["wait"])
	}
}

func TestChromeTraceIsJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spans.json")
	spans := []span{{Name: "a", Start: ms, End: 3 * ms, Parent: -1, Op: 2}}
	if err := writeChromeTrace(path, spans); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string
			Ph   string
			Ts   float64
			Dur  float64
			Tid  int
		}
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if e := doc.TraceEvents[0]; e.Name != "a" || e.Ph != "X" || e.Ts != 1000 || e.Dur != 2000 || e.Tid != 2 {
		t.Errorf("event %+v", e)
	}
}
