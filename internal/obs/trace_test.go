// Tests of the hand-formatted JSONL trace writer: hostile event names and
// field keys must not break the framing, and the hot path must not
// allocate.
package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"
)

// TestEmitAtSanitizesNames: bytes outside [A-Za-z0-9_.-] in event names and
// field keys are replaced with '_', so quotes, backslashes and control
// bytes cannot corrupt the JSONL stream.
func TestEmitAtSanitizesNames(t *testing.T) {
	var b bytes.Buffer
	r := NewRecorder(&b, nil)
	r.EmitAt(1, `ev"il`+"\n", 0, F("ok_key", 1), F(`k"\`+"\x00", 2), F("trailing ", 3))
	r.EmitAt(2, "plain-ev.2", 1, F("a", -7))
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2:\n%s", len(lines), b.String())
	}
	var ev map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &ev); err != nil {
		t.Fatalf("sanitized line is not valid JSON: %v\n%s", err, lines[0])
	}
	if ev["ev"] != "ev_il_" {
		t.Fatalf("event name not sanitized: %q", ev["ev"])
	}
	for _, k := range []string{"ok_key", `k___`, "trailing_"} {
		if _, present := ev[k]; !present {
			t.Fatalf("field %q missing from %s", k, lines[0])
		}
	}
	if err := json.Unmarshal([]byte(lines[1]), &ev); err != nil {
		t.Fatalf("clean line broken: %v", err)
	}
	if ev["ev"] != "plain-ev.2" || ev["a"] != float64(-7) {
		t.Fatalf("clean names must pass through verbatim: %s", lines[1])
	}
	// CountOf keys on the name as passed by the caller; sanitization only
	// affects the serialized form.
	if r.CountOf(`ev"il`+"\n") != 1 {
		t.Fatal("event not counted under its caller-side name")
	}
}

// TestEmitTaggedRoundTrip: string tags follow the numeric fields on the
// line, and hostile tag keys and values are sanitized to the identifier
// alphabet so they cannot break the framing. (The read half of the round
// trip is internal/tracereport's TestReadTraceRoundTrip.)
func TestEmitTaggedRoundTrip(t *testing.T) {
	var b bytes.Buffer
	r := NewRecorder(&b, nil)
	r.EmitAtTagged(7, EvHTTPStart, -1,
		[]SField{S("req", "demo-1"), S("route", "submit")}, F("reqn", 3))
	r.EmitAtTagged(9, EvHTTPEnd, -1,
		[]SField{S("req", `ev"il`+"\nid"), S(`bad key`, "v")}, F("reqn", 3))
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	want := `{"ts":7,"ev":"http-begin","w":-1,"reqn":3,"req":"demo-1","route":"submit"}` + "\n" +
		`{"ts":9,"ev":"http-end","w":-1,"reqn":3,"req":"ev_il_id","bad_key":"v"}` + "\n"
	if b.String() != want {
		t.Fatalf("tagged lines:\n got %s\nwant %s", b.String(), want)
	}
	for _, line := range strings.Split(strings.TrimSuffix(want, "\n"), "\n") {
		if !json.Valid([]byte(line)) {
			t.Fatalf("tagged line is not valid JSON: %s", line)
		}
	}
}

// TestEmitTaggedUsesClock: EmitTagged stamps via the recorder clock like
// Emit does.
func TestEmitTaggedUsesClock(t *testing.T) {
	var b bytes.Buffer
	tick := int64(40)
	r := NewRecorder(&b, func() int64 { tick += 2; return tick })
	r.EmitTagged(EvJobSubmit, -1, []SField{S("job", "j000001")}, F("jobn", 1))
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	if got, want := b.String(), `{"ts":42,"ev":"job-submit","w":-1,"jobn":1,"job":"j000001"}`+"\n"; got != want {
		t.Fatalf("got %swant %s", got, want)
	}
	if r.CountOf(EvJobSubmit) != 1 {
		t.Fatal("tagged event not counted")
	}
}

// TestEmitTaggedNilSafe: a nil recorder ignores tagged emissions too.
func TestEmitTaggedNilSafe(t *testing.T) {
	var r *Recorder
	r.EmitTagged(EvHTTPStart, -1, []SField{S("req", "x")})
	r.EmitAtTagged(1, EvHTTPEnd, -1, nil)
	if r.Events() != 0 || r.CountOf(EvHTTPStart) != 0 {
		t.Fatal("nil recorder must report zero events")
	}
}

// BenchmarkEmitAt: the trace hot path (pool workers emit per task) must be
// allocation-free — AvailableBuffer + strconv.Append*, no encoding/json.
func BenchmarkEmitAt(b *testing.B) {
	r := NewRecorder(io.Discard, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.EmitAt(int64(i), EvTaskSubmit, 3,
			F("task", int64(i)), F("parent", 7), F("taxon", 42), F("branches", 5))
	}
	if err := r.Flush(); err != nil {
		b.Fatal(err)
	}
}

// TestEmitAtAllocFree pins the zero-allocation property so a regression
// fails tests, not just a benchmark someone has to read.
func TestEmitAtAllocFree(t *testing.T) {
	r := NewRecorder(io.Discard, nil)
	fields := []Field{F("task", 9), F("parent", 7)}
	allocs := testing.AllocsPerRun(200, func() {
		r.EmitAt(5, EvSteal, 1, fields...)
	})
	if allocs > 0 {
		t.Fatalf("EmitAt allocates %.1f times per call, want 0", allocs)
	}
}
