// Scheduler event tracing: one JSON object per line, hand-formatted (no
// encoding/json on the hot path), safe for concurrent emitters. A nil
// *Recorder disables tracing at the cost of one branch per call site —
// the pool keeps a possibly-nil recorder and calls it unconditionally.
package obs

import (
	"bufio"
	"io"
	"strconv"
	"sync"
	"time"
)

// Clock produces event timestamps. The parallel pool uses WallClock
// (nanoseconds since the run started); the virtual-time simulator stamps
// events explicitly via EmitAt so traces are deterministic.
type Clock func() int64

// WallClock returns a Clock reporting nanoseconds elapsed since start.
func WallClock(start time.Time) Clock {
	return func() int64 { return int64(time.Since(start)) }
}

// Scheduler trace event types. These names are the whole contract between
// this package, which writes traces, and internal/tracereport, which reads
// them. Every name here has an emitter and a reader, both listed in
// CATALOGUE.md (TestCatalogue compares that table with this block): a
// refused queue offer, for one, is per-frame work with no reader and is
// neither traced nor counted, and a worker going idle
// or leaving the pool is what the gap between its task-end and its next
// steal already says.
const (
	EvWorkerStart = "worker-start" // a worker starts
	EvTaskSubmit  = "task-submit"  // a task was enqueued
	EvSteal       = "steal"        // an idle worker dequeued a task
	EvFlush       = "flush"        // local counters flushed to the globals
	EvStop        = "stop"         // a stopping rule fired
	EvPanic       = "worker-panic" // a task panicked: the run fails

	// Task-lineage span events: every task (including each worker's
	// initial-split share) carries a run-unique id, submissions carry the
	// submitting task's id as "parent", and begin/end bracket the task's
	// execution on a worker — so steal chains and per-task spans are
	// reconstructible offline (see internal/tracereport).
	EvTaskStart = "task-begin" // a worker starts executing a task
	EvTaskEnd   = "task-end"   // the task's execution (incl. rewind) ended

	// Serving-path span events (emitted by internal/service, worker -1).
	// Requests carry a run-unique numeric serial ("reqn") plus the string
	// request id ("req"); job events carry the job's numeric serial
	// ("jobn"), its id ("job") and, when the job was born from an HTTP
	// submission, the originating request's "req"/"reqn" — the correlation
	// chain that lets one Perfetto view walk HTTP arrival → queue wait →
	// job execution → worker task spans.
	EvHTTPStart = "http-begin" // request entered the middleware
	EvHTTPEnd   = "http-end"   // response written (status, bytes in/out)
	EvJobSubmit = "job-submit" // job accepted and enqueued
	EvJobStart  = "job-begin"  // a pool worker started the job
	EvJobEnd    = "job-end"    // the job reached a terminal state

	// Fleet events (emitted by internal/dist, worker -1). Shard events
	// carry the job id as a "job" tag plus "shard"/"epoch" numeric fields,
	// so one trace reconstructs every shard's lease lineage: dispatch →
	// (expire → re-dispatch)* → done, with fencing visible in between.
	EvShardDispatch = "shard-dispatch" // shard leased to a peer (tags: peer, cause)
	EvShardDone     = "shard-done"     // shard result merged into the job total
	EvLeaseExpire   = "lease-expire"   // lease ran out of heartbeats
	EvShardFenced   = "shard-fenced"   // stale-epoch heartbeat/result turned away

	// Fleet-trace span events. The coordinator mints one trace id per fleet
	// run ("fleet-run", tag "trace") and stamps it on every RPC; both sides
	// emit the events below with {trace, job, node} tags and {shard, epoch}
	// fields, so N per-node JSONL traces are joinable into one fleet
	// timeline (tracereport.MergeFleet; cmd/obsreport -trace given one path
	// per node, which places each event on the node whose trace held it: a
	// coordinator event's node tag names the shard's holder). The
	// heartbeat send/recv pairs double as the NTP-free clock-alignment
	// signal: each dispatch→shard-begin pair lower-bounds a worker's clock
	// offset, each hb-send→hb-recv pair upper-bounds it.
	EvFleetRun        = "fleet-run"        // coordinator minted a fleet-run trace id
	EvShardBegin      = "shard-begin"      // worker accepted a lease and started the shard
	EvShardEnd        = "shard-end"        // worker finished the shard (tag "outcome")
	EvShardHeartbeat  = "shard-hb-send"    // worker snapshotted + sent a heartbeat (field "seq")
	EvHeartbeatRecv   = "shard-hb-recv"    // coordinator accepted a heartbeat (field "seq")
	EvShardCheckpoint = "shard-checkpoint" // worker captured a durable frontier snapshot
)

// Field is one numeric key/value of a trace event. All scheduler payloads
// are integral (branch counts, path lengths, counter deltas, tick stamps).
type Field struct {
	K string
	V int64
}

// F is shorthand for constructing a Field.
func F(k string, v int64) Field { return Field{K: k, V: v} }

// SField is one string key/value of a trace event — identifiers the
// serving path correlates on (request ids, routes, job ids). Both key and
// value pass through the same identifier-alphabet sanitizer as event
// names, so a hostile value can mangle itself but never the JSONL framing.
type SField struct {
	K string
	V string
}

// S is shorthand for constructing an SField.
func S(k, v string) SField { return SField{K: k, V: v} }

// recorderOut is the shared output side of a Recorder: the buffered
// writer, its mutex, and the event tallies. Derived recorders (see With)
// are thin handles onto one recorderOut, so a per-shard recorder costs a
// small struct, not a second stream, and all handles interleave safely on
// the same JSONL file.
type recorderOut struct {
	mu     sync.Mutex
	w      *bufio.Writer
	closer io.Closer
	events int64
	counts map[string]int64
}

// Recorder writes JSONL trace events. All methods are safe on a nil
// receiver (they no-op), and safe for concurrent use otherwise.
type Recorder struct {
	out   *recorderOut
	clock Clock
	// Fixed context stamped on every event this handle emits, after the
	// per-call fields/tags. Populated by With; nil on a root recorder so
	// the zero-cost path stays zero-cost.
	tags  []SField
	fixed []Field
}

// NewRecorder traces onto w using clock for timestamps (nil clock: all
// zero — the caller stamps via EmitAt). If w is also an io.Closer, Close
// closes it.
func NewRecorder(w io.Writer, clock Clock) *Recorder {
	out := &recorderOut{w: bufio.NewWriterSize(w, 1<<16),
		counts: map[string]int64{}}
	if c, ok := w.(io.Closer); ok {
		out.closer = c
	}
	return &Recorder{out: out, clock: clock}
}

// With returns a derived recorder that stamps the given string tags and
// numeric fields onto every event it emits, sharing the parent's output
// stream, clock and tallies. The fixed context is appended after each
// call's own fields/tags, and a child's context extends its parent's — so
// internal/dist hands the engine a recorder that adds {trace, job, node}
// tags and {shard, epoch} fields to every task-begin/task-end without the
// hot path knowing fleet context exists. Emission through a derived
// recorder stays allocation-free (the fixed slices are built once, here).
// Nil-safe: a nil parent yields a nil (no-op) child.
func (r *Recorder) With(tags []SField, fields ...Field) *Recorder {
	if r == nil {
		return nil
	}
	nr := &Recorder{out: r.out, clock: r.clock}
	nr.tags = append(append([]SField(nil), r.tags...), tags...)
	nr.fixed = append(append([]Field(nil), r.fixed...), fields...)
	return nr
}

// Emit records an event stamped by the recorder's clock.
func (r *Recorder) Emit(ev string, worker int, fields ...Field) {
	if r == nil {
		return
	}
	ts := int64(0)
	if r.clock != nil {
		ts = r.clock()
	}
	r.EmitAtTagged(ts, ev, worker, nil, fields...)
}

// EmitTagged records an event with string tags alongside numeric fields,
// stamped by the recorder's clock.
func (r *Recorder) EmitTagged(ev string, worker int, tags []SField, fields ...Field) {
	if r == nil {
		return
	}
	ts := int64(0)
	if r.clock != nil {
		ts = r.clock()
	}
	r.EmitAtTagged(ts, ev, worker, tags, fields...)
}

// safeKeyByte reports whether c may appear verbatim in an event name or
// field key: the identifier-ish alphabet that can never break the
// hand-formatted JSON (no quotes, no backslashes, no control bytes).
func safeKeyByte(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' ||
		c >= '0' && c <= '9' || c == '_' || c == '-' || c == '.'
}

// appendKey appends s as a JSON-safe name. The expected case — every byte
// identifier-ish — is a straight copy; any other byte is replaced by '_',
// so a hostile or buggy key can corrupt its own name but never the JSONL
// framing. Allocation-free either way (writes into buf).
func appendKey(buf []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; safeKeyByte(c) {
			buf = append(buf, c)
		} else {
			buf = append(buf, '_')
		}
	}
	return buf
}

// EmitAt records an event with an explicit timestamp (virtual time). The
// event name and field keys must be identifier-like ([A-Za-z0-9_.-]);
// other bytes are replaced with '_' so they cannot break the JSON framing.
func (r *Recorder) EmitAt(ts int64, ev string, worker int, fields ...Field) {
	r.EmitAtTagged(ts, ev, worker, nil, fields...)
}

// EmitAtTagged records an event with an explicit timestamp, string tags
// and numeric fields. Tags follow the numeric fields on the line (with a
// derived recorder's fixed fields/tags after each group); names, keys and
// tag values all pass through the identifier sanitizer, so no input can
// break the JSONL framing.
func (r *Recorder) EmitAtTagged(ts int64, ev string, worker int, tags []SField, fields ...Field) {
	if r == nil {
		return
	}
	o := r.out
	o.mu.Lock()
	defer o.mu.Unlock()
	buf := o.w.AvailableBuffer()
	buf = append(buf, `{"ts":`...)
	buf = strconv.AppendInt(buf, ts, 10)
	buf = append(buf, `,"ev":"`...)
	buf = appendKey(buf, ev)
	buf = append(buf, `","w":`...)
	buf = strconv.AppendInt(buf, int64(worker), 10)
	for _, f := range fields {
		buf = appendField(buf, f)
	}
	for _, f := range r.fixed {
		buf = appendField(buf, f)
	}
	for _, f := range tags {
		buf = appendTag(buf, f)
	}
	for _, f := range r.tags {
		buf = appendTag(buf, f)
	}
	buf = append(buf, '}', '\n')
	o.w.Write(buf)
	o.events++
	o.counts[ev]++
}

// appendField appends one ,"key":value numeric member.
func appendField(buf []byte, f Field) []byte {
	buf = append(buf, ',', '"')
	buf = appendKey(buf, f.K)
	buf = append(buf, '"', ':')
	return strconv.AppendInt(buf, f.V, 10)
}

// appendTag appends one ,"key":"value" string member.
func appendTag(buf []byte, f SField) []byte {
	buf = append(buf, ',', '"')
	buf = appendKey(buf, f.K)
	buf = append(buf, '"', ':', '"')
	buf = appendKey(buf, f.V)
	return append(buf, '"')
}

// Events returns how many events were recorded (0 on nil). Derived
// recorders share the tally with their parent.
func (r *Recorder) Events() int64 {
	if r == nil {
		return 0
	}
	r.out.mu.Lock()
	defer r.out.mu.Unlock()
	return r.out.events
}

// CountOf returns how many events of the given type were recorded.
func (r *Recorder) CountOf(ev string) int64 {
	if r == nil {
		return 0
	}
	r.out.mu.Lock()
	defer r.out.mu.Unlock()
	return r.out.counts[ev]
}

// Flush drains the internal buffer to the underlying writer.
func (r *Recorder) Flush() error {
	if r == nil {
		return nil
	}
	r.out.mu.Lock()
	defer r.out.mu.Unlock()
	return r.out.w.Flush()
}

// Close flushes and, if the underlying writer is a Closer, closes it.
func (r *Recorder) Close() error {
	if r == nil {
		return nil
	}
	if err := r.Flush(); err != nil {
		return err
	}
	if r.out.closer != nil {
		return r.out.closer.Close()
	}
	return nil
}
