// HTTP middleware: the serving-path observability layer every gentriusd
// route passes through. Each request gets a run-unique request id (inbound
// X-Request-Id is honored, after sanitizing), per-route/status count and
// latency metrics, a structured access log line, and http-begin/http-end trace
// span events carrying the request id — the HTTP end of the
// request→job→task correlation chain.
package service

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"gentrius/internal/dist"
	"gentrius/internal/obs"
)

// maxRequestIDLen caps an inbound X-Request-Id; longer ids are truncated.
// 64 bytes is plenty for a UUID and keeps hostile headers out of logs,
// metric labels and the trace stream.
const maxRequestIDLen = 64

// latencyBuckets spans 1ms..~65s exponentially — the serving range between
// a cached stats read and a long enumeration submit.
var latencyBuckets = obs.ExpBuckets(1e-3, 2, 17)

// latency returns route's latency histogram, registered when the route
// serves its first request, so the exposition only carries routes that
// actually served traffic; nil without a registry.
func (mw *Middleware) latency(route string) *obs.Histogram {
	if mw.reg == nil {
		return nil
	}
	return mw.reg.Histogram(fmt.Sprintf("gentriusd_http_request_seconds{route=%q}", route),
		"HTTP request latency by route", latencyBuckets)
}

// counted returns the route+status counter, registered on first use.
func (mw *Middleware) counted(route string, code int) *obs.Counter {
	if mw.reg == nil {
		return nil
	}
	return mw.reg.Counter(
		fmt.Sprintf("gentriusd_http_requests_total{route=%q,code=\"%d\"}", route, code),
		"HTTP requests by route and status code")
}

// Middleware instruments handlers: request ids, metrics, access logs and
// trace spans. The zero value and a nil receiver disable everything except
// passing the request through.
type Middleware struct {
	reg    *obs.Registry // the per-route families; nil disables them
	log    *slog.Logger
	trace  *obs.Recorder
	runID  string
	serial atomic.Int64
}

// NewMiddleware builds the instrumentation layer. runID prefixes minted
// request ids so ids stay unique across daemon restarts; reg may be nil (no
// metrics), trace may be nil (no span events), log may be nil (no access
// logs).
func NewMiddleware(reg *obs.Registry, log *slog.Logger, trace *obs.Recorder, runID string) *Middleware {
	return &Middleware{reg: reg, log: log, trace: trace, runID: runID}
}

// requestInfo travels in the request context: the request's id and serial,
// plus the job id a submit handler attaches once it knows it.
type requestInfo struct {
	id     string
	serial int64

	mu    sync.Mutex
	jobID string
}

func (ri *requestInfo) setJob(id string) {
	if ri == nil {
		return
	}
	ri.mu.Lock()
	ri.jobID = id
	ri.mu.Unlock()
}

func (ri *requestInfo) job() string {
	if ri == nil {
		return ""
	}
	ri.mu.Lock()
	defer ri.mu.Unlock()
	return ri.jobID
}

type requestInfoKey struct{}

func contextWithInfo(ctx context.Context, ri *requestInfo) context.Context {
	return context.WithValue(ctx, requestInfoKey{}, ri)
}

// RequestID returns the request id minted (or accepted) by the middleware,
// or "" outside an instrumented request.
func RequestID(r *http.Request) string {
	if ri, ok := r.Context().Value(requestInfoKey{}).(*requestInfo); ok {
		return ri.id
	}
	return ""
}

// requestSerial returns the run-unique numeric serial of the request (the
// "reqn" trace correlation key), or 0 outside an instrumented request.
func requestSerial(r *http.Request) int64 {
	if ri, ok := r.Context().Value(requestInfoKey{}).(*requestInfo); ok {
		return ri.serial
	}
	return 0
}

// noteJob attaches the job id a handler created to the request's access log
// line. No-op outside an instrumented request.
func noteJob(r *http.Request, jobID string) {
	if ri, ok := r.Context().Value(requestInfoKey{}).(*requestInfo); ok {
		ri.setJob(jobID)
	}
}

// sanitizeRequestID keeps the identifier alphabet ([A-Za-z0-9._-]) of an
// inbound X-Request-Id and truncates it; returns "" for an id that is empty
// after cleaning (the caller mints one instead).
func sanitizeRequestID(s string) string {
	if len(s) > maxRequestIDLen {
		s = s[:maxRequestIDLen]
	}
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' ||
			c >= '0' && c <= '9' || c == '_' || c == '-' || c == '.' {
			out = append(out, c)
		}
	}
	return string(out)
}

// statusWriter wraps the ResponseWriter to capture the status code and
// count response bytes. Unwrap exposes the underlying writer so
// http.ResponseController (the tree stream's per-write deadlines) still
// reaches it, and Flush keeps NDJSON streaming working.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// countingBody wraps the request body to count the bytes the handler
// actually read (post-middleware wrappers like MaxBytesReader still apply).
type countingBody struct {
	rc io.ReadCloser
	n  int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.rc.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *countingBody) Close() error { return b.rc.Close() }

// Wrap instruments next under the given route name. A nil middleware
// returns next unchanged.
func (mw *Middleware) Wrap(route string, next http.HandlerFunc) http.Handler {
	if mw == nil {
		return next
	}
	// Looked up once, by the route's first request rather than here: a
	// route that never serves must not add zero-valued series to /metrics.
	var (
		once    sync.Once
		latency *obs.Histogram
	)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		serial := mw.serial.Add(1)
		id := sanitizeRequestID(r.Header.Get("X-Request-Id"))
		if id == "" {
			id = fmt.Sprintf("%s-%06d", mw.runID, serial)
		}
		ri := &requestInfo{id: id, serial: serial}
		r = r.WithContext(contextWithInfo(r.Context(), ri))
		// A fleet RPC announces its run's trace id; adopting it onto the
		// serving spans (and access log) joins this node's HTTP timeline to
		// the merged fleet timeline obsreport reconstructs.
		fleetTrace := sanitizeRequestID(r.Header.Get(dist.FleetTraceHeader))

		body := &countingBody{rc: r.Body}
		r.Body = body
		sw := &statusWriter{ResponseWriter: w}
		w.Header().Set("X-Request-Id", id)

		beginTags := []obs.SField{obs.S("req", id), obs.S("route", route)}
		if fleetTrace != "" {
			beginTags = append(beginTags, obs.S("trace", fleetTrace))
		}
		mw.trace.EmitTagged(obs.EvHTTPStart, -1, beginTags, obs.F("reqn", serial))

		next(sw, r)

		elapsed := time.Since(start)
		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		once.Do(func() { latency = mw.latency(route) })
		latency.Observe(elapsed.Seconds())
		mw.counted(route, status).Inc()
		endTags := []obs.SField{obs.S("req", id)}
		if fleetTrace != "" {
			endTags = append(endTags, obs.S("trace", fleetTrace))
		}
		mw.trace.EmitTagged(obs.EvHTTPEnd, -1, endTags,
			obs.F("reqn", serial), obs.F("status", int64(status)),
			obs.F("bytes_in", body.n), obs.F("bytes_out", sw.bytes))

		if mw.log != nil {
			attrs := []any{
				"req", id, "route", route,
				"method", r.Method, "path", r.URL.Path,
				"status", status,
				"bytes_in", body.n, "bytes_out", sw.bytes,
				"duration_seconds", elapsed.Seconds(),
			}
			if job := ri.job(); job != "" {
				attrs = append(attrs, "job", job)
			}
			if fleetTrace != "" {
				attrs = append(attrs, "trace", fleetTrace)
			}
			mw.log.Info("http request", attrs...)
		}
	})
}
