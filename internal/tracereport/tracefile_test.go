// Tests of the trace reader. Trace files are outside input to obsreport, so
// every malformed shape must be refused with its line number rather than
// half-read.
package tracereport_test

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"gentrius/internal/obs"
	"gentrius/internal/tracereport"
)

func TestReadTraceErrors(t *testing.T) {
	for _, tc := range []struct {
		name, in, wantErr string
	}{
		{"malformed line", "{bad json\n", "line 1"},
		{"missing ev", `{"ts":1,"w":0}` + "\n", "missing ev"},
		{"non-string ev", `{"ts":1,"ev":7}` + "\n", "non-string ev"},
		{"non-numeric field", `{"ts":1,"ev":"steal","task":[1]}` + "\n", `non-numeric field "task"`},
		{"fractional field", `{"ts":1.5,"ev":"steal"}` + "\n", `field "ts"`},
		// Two events on one line: the second must not be dropped silently.
		{"glued line", `{"ts":1,"ev":"flush","w":0}` + "\n" +
			`{"ts":2,"ev":"steal","w":1,"task":4}{"ts":3,"ev":"task-begin","w":1,"task":4}` + "\n",
			"line 2: trailing data"},
		{"trailing garbage", `{"ts":1,"ev":"steal","w":0} x` + "\n", "line 1: trailing data"},
	} {
		evs, err := tracereport.ReadTrace(strings.NewReader(tc.in))
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: got %d events, err %v; want an error containing %q",
				tc.name, len(evs), err, tc.wantErr)
		}
	}

	evs, err := tracereport.ReadTrace(strings.NewReader(
		"\n" + `{"ts":5,"ev":"steal","w":2,"task":9}` + "  \n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 1 || evs[0].TS != 5 || evs[0].Ev != "steal" ||
		evs[0].Worker != 2 || evs[0].Get("task") != 9 || !evs[0].Has("task") {
		t.Fatalf("parsed %+v", evs)
	}
}

// TestReadTraceRoundTrip: what a Recorder writes reads back field for
// field — numeric payloads in Fields, string tags (sanitized by the
// writer) in Str.
func TestReadTraceRoundTrip(t *testing.T) {
	var b bytes.Buffer
	r := obs.NewRecorder(&b, nil)
	r.EmitAtTagged(7, obs.EvHTTPStart, -1,
		[]obs.SField{obs.S("req", "demo-1"), obs.S("route", "submit")}, obs.F("reqn", 3))
	r.EmitAtTagged(9, obs.EvHTTPEnd, -1,
		[]obs.SField{obs.S("req", `ev"il`+"\nid"), obs.S(`bad key`, "v")}, obs.F("reqn", 3))
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	evs, err := tracereport.ReadTrace(&b)
	if err != nil {
		t.Fatalf("recorder output must parse: %v", err)
	}
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
	e := evs[0]
	if e.TS != 7 || e.Ev != obs.EvHTTPStart || e.Worker != -1 ||
		e.Get("reqn") != 3 || e.GetStr("req") != "demo-1" || e.GetStr("route") != "submit" {
		t.Fatalf("round trip mangled event: %+v", e)
	}
	if evs[1].GetStr("req") != "ev_il_id" || evs[1].GetStr("bad_key") != "v" {
		t.Fatalf("hostile tag not sanitized: %+v", evs[1].Str)
	}
	if e.GetStr("absent") != "" || e.Has("absent") {
		t.Fatal("absent tag/field must read as empty")
	}
}

// FuzzReadTrace: the reader never panics, and whatever it accepts is a
// list of named events.
func FuzzReadTrace(f *testing.F) {
	for _, name := range []string{"sim_small", "serve_small", "fleet_worker_a"} {
		raw, err := os.ReadFile("testdata/" + name + ".trace.jsonl")
		if err != nil {
			f.Fatal(err)
		}
		// A few lines exercise every field kind; whole files only slow the
		// mutator down.
		f.Add(bytes.Join(bytes.SplitAfterN(raw, []byte("\n"), 6)[:5], nil))
	}
	f.Add([]byte(`{"ts":1,"ev":"steal","w":0}{"ts":2,"ev":"steal","w":0}` + "\n"))
	f.Add([]byte(`{"ts":1e3,"ev":"","w":null}` + "\n\n{"))
	f.Fuzz(func(t *testing.T, in []byte) {
		evs, err := tracereport.ReadTrace(bytes.NewReader(in))
		if err != nil {
			return
		}
		for i, e := range evs {
			if e.Ev == "" {
				t.Fatalf("accepted event %d has no ev: %+v", i, e)
			}
		}
	})
}
