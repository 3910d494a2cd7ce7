// HTTP front end for the job manager: submit constraint sets, poll status,
// stream stand trees as NDJSON, cancel. cmd/gentriusd mounts these routes
// next to the internal/obs metrics/pprof endpoints on one mux.
package service

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math/bits"
	"net/http"
	"strings"
	"time"

	"gentrius"
	"gentrius/internal/tree"
)

// streamWriteTimeout is the per-write deadline of the NDJSON tree stream.
// The server's global WriteTimeout would kill a long-lived follower, so
// handleTrees pushes its own deadline forward on every write instead: a
// healthy slow enumeration streams indefinitely, while a stuck client is
// disconnected within one interval.
const streamWriteTimeout = 30 * time.Second

// RegisterRoutes mounts the job API onto mux:
//
//	POST   /jobs             submit a job (JobRequest JSON), 202 + Status
//	GET    /jobs             list all jobs (Status array)
//	GET    /jobs/{id}        one job's Status
//	GET    /jobs/{id}/stats  live progress: counters, estimated fraction
//	                         of the search space explored, calibrated ETA
//	GET    /jobs/{id}/trees  NDJSON stream of stand trees, following the
//	                         enumeration live until the job finishes
//	POST   /jobs/{id}/cancel cancel (also: DELETE /jobs/{id})
//	POST   /jobs/{id}/checkpoint
//	                         snapshot the running job on demand: quiesces
//	                         its workers (at any thread count), persists
//	                         the checkpoint, returns its file name
//	GET    /jobs/{id}/checkpoint
//	                         download the job's latest checkpoint envelope
//	GET    /healthz          liveness probe: uptime, jobs by state, and the
//	                         persistence dropped-write counters ("degraded"
//	                         when any write was ever dropped)
//
// Every route passes through the manager's middleware: request ids, per-
// route SLO metrics, access logs and http-begin/http-end trace spans.
func (m *Manager) RegisterRoutes(mux *http.ServeMux) {
	mux.Handle("POST /jobs", m.mw.Wrap("submit", m.handleSubmit))
	mux.Handle("GET /jobs", m.mw.Wrap("list", m.handleList))
	mux.Handle("GET /jobs/{id}", m.mw.Wrap("get", m.handleGet))
	mux.Handle("GET /jobs/{id}/stats", m.mw.Wrap("stats", m.handleStats))
	mux.Handle("GET /jobs/{id}/trees", m.mw.Wrap("trees", m.handleTrees))
	mux.Handle("POST /jobs/{id}/cancel", m.mw.Wrap("cancel", m.handleCancel))
	mux.Handle("POST /jobs/{id}/checkpoint", m.mw.Wrap("checkpoint", m.handleCheckpoint))
	mux.Handle("GET /jobs/{id}/checkpoint", m.mw.Wrap("checkpoint_get", m.handleCheckpointGet))
	mux.Handle("DELETE /jobs/{id}", m.mw.Wrap("cancel", m.handleCancel))
	mux.Handle("GET /healthz", m.mw.Wrap("healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, m.Health())
	}))
}

// Middleware exposes the manager's instrumentation layer so additional
// routes (cmd/gentriusd's /metrics) can be wrapped into the same per-route
// metrics, access logs and request-id scheme.
func (m *Manager) Middleware() *Middleware { return m.mw }

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone is not actionable
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

func (m *Manager) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if m.cfg.MaxBodyBytes > 0 {
		r.Body = http.MaxBytesReader(w, r.Body, m.cfg.MaxBodyBytes)
	}
	var req JobRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeJSON(w, http.StatusRequestEntityTooLarge, map[string]any{
				"error":          fmt.Sprintf("request body exceeds %d bytes", mbe.Limit),
				"max_body_bytes": mbe.Limit,
			})
			return
		}
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	job, err := m.SubmitWithRequest(req, RequestID(r), requestSerial(r))
	var le *LimitError
	switch {
	case errors.Is(err, ErrQueueFull):
		writeError(w, http.StatusServiceUnavailable, err)
		return
	case errors.Is(err, ErrShuttingDown):
		// The daemon is draining for shutdown; tell clients when another
		// instance (or a restart) is worth trying.
		w.Header().Set("Retry-After", "10")
		writeError(w, http.StatusServiceUnavailable, err)
		return
	case errors.As(err, &le):
		writeJSON(w, http.StatusBadRequest, map[string]any{
			"error": le.Error(),
			"limit": le.What,
			"got":   le.Got,
			"max":   le.Max,
		})
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
		return
	}
	noteJob(r, job.ID())
	writeJSON(w, http.StatusAccepted, job.Status())
}

func (m *Manager) handleList(w http.ResponseWriter, _ *http.Request) {
	jobs := m.List()
	out := make([]Status, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.Status())
	}
	writeJSON(w, http.StatusOK, out)
}

func (m *Manager) handleGet(w http.ResponseWriter, r *http.Request) {
	job, ok := m.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no such job"))
		return
	}
	writeJSON(w, http.StatusOK, job.Status())
}

func (m *Manager) handleStats(w http.ResponseWriter, r *http.Request) {
	job, ok := m.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no such job"))
		return
	}
	writeJSON(w, http.StatusOK, job.Stats())
}

func (m *Manager) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !m.Cancel(id) {
		writeError(w, http.StatusNotFound, fmt.Errorf("no such job"))
		return
	}
	job, _ := m.Get(id)
	writeJSON(w, http.StatusOK, job.Status())
}

// checkpointRequestTimeout bounds how long an on-demand checkpoint waits
// for the job's engine to reach a task boundary and quiesce. Generously
// above any real pause; it only fires if the engine is wedged.
const checkpointRequestTimeout = 30 * time.Second

// handleCheckpoint snapshots a running job on demand. The request blocks
// while the job's worker pool quiesces at task boundaries (serial jobs
// snapshot at the next stopping-rule check), the envelope is persisted
// next to the spool, and the response carries the updated Status with
// CheckpointFile set. 409 when the job is not running.
func (m *Manager) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	ctx, cancel := context.WithTimeout(r.Context(), checkpointRequestTimeout)
	defer cancel()
	_, err := m.RequestCheckpoint(ctx, id)
	switch {
	case errors.Is(err, ErrUnknownJob):
		writeError(w, http.StatusNotFound, err)
	case errors.Is(err, ErrNotRunning), errors.Is(err, gentrius.ErrRunEnded):
		writeError(w, http.StatusConflict, err)
	case err != nil:
		writeError(w, http.StatusInternalServerError, err)
	default:
		job, _ := m.Get(id)
		writeJSON(w, http.StatusOK, job.Status())
	}
}

// handleCheckpointGet serves the job's latest persisted checkpoint
// envelope — the exact bytes a resume consumes. 404 until one exists.
func (m *Manager) handleCheckpointGet(w http.ResponseWriter, r *http.Request) {
	job, ok := m.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no such job"))
		return
	}
	job.mu.Lock()
	path := job.ckptPath
	job.mu.Unlock()
	if path == "" {
		writeError(w, http.StatusNotFound, fmt.Errorf("job has no checkpoint yet"))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	http.ServeFile(w, r, path)
}

// treeLine is one NDJSON record of the tree stream.
type treeLine struct {
	Tree string `json:"tree"`
}

// appendTreeRecords appends one NDJSON record per line of lines (whole
// lines, each newline-terminated) to dst: the bytes json.Encoder would write
// for treeLine{line}. Plain lines (a plain spool's: see spool.plain) hold no
// byte the encoder escapes, so each is framed by its newline and copied
// between the record's fixed ends without its bytes being read. Otherwise
// escapeIndex finds the first byte the encoder would escape, eight bytes a
// step; every whole line before it is copied the same way, the line that
// holds it — a quoted label can hold anything — goes through encoding/json,
// and the scan resumes after that line. On serve-jobs' stands the framing
// takes 0.06 to 0.07 ns a byte and the scan 0.5 to 0.6, against 0.05 to 0.06
// for a memmove of the same bytes (BenchmarkTreeRecords, two-core Xeon).
func appendTreeRecords(dst, lines []byte, plain bool) []byte {
	for len(lines) > 0 {
		e := len(lines)
		if !plain {
			e = escapeIndex(lines)
		}
		for len(lines) > 0 {
			i := bytes.IndexByte(lines, '\n')
			line := lines[:i]
			lines = lines[i+1:]
			if i < e {
				dst = append(append(append(dst, `{"tree":"`...), line...), "\"}\n"...)
				e -= i + 1
				continue
			}
			rec, _ := json.Marshal(treeLine{Tree: string(line)}) // a struct of one string cannot fail
			dst = append(append(dst, rec...), '\n')
			break
		}
	}
	return dst
}

// escapeIndex returns the offset of the first byte of b that json.Encoder
// escapes in a string — below 0x20 but '\n', 0x80 and above, or one of "\<>&
// — or len(b) if there is none.
func escapeIndex(b []byte) int {
	i := 0
	for ; len(b)-i >= 8; i += 8 {
		if m := escapeMask(binary.LittleEndian.Uint64(b[i:])); m != 0 {
			return i + bits.TrailingZeros64(m)/8
		}
	}
	var tail [8]byte // padded with zero bytes, which are escaped: the first stops the scan at len(b)
	copy(tail[:], b[i:])
	return i + bits.TrailingZeros64(escapeMask(binary.LittleEndian.Uint64(tail[:])))/8
}

// plainLabels reports whether the engine's renderings over taxa hold no byte
// json.Encoder escapes. The Newick writer emits only labels, quotes around
// some of them, '(', ')', ',' and ';', so they hold none when no label holds
// a byte escapeIndex stops at, or a newline, which would split a tree across
// two spool lines.
func plainLabels(taxa *tree.Taxa) bool {
	for id := range taxa.Len() {
		name := taxa.Name(id)
		if escapeIndex([]byte(name)) < len(name) || strings.IndexByte(name, '\n') >= 0 {
			return false
		}
	}
	return true
}

// escapeMask sets the high bit of every byte of w that json.Encoder escapes.
// Each byte is tested on its low seven bits, where adding at most 0x7f cannot
// carry into the next byte, so every byte's bit is exact.
func escapeMask(w uint64) uint64 {
	const ones, high = 0x0101010101010101, 0x8080808080808080
	x := w &^ high
	notCtrl := x + ones*(0x80-0x20)                         // high bit: x >= 0x20
	notNL := (x ^ ones*'\n') + ones*0x7f                    // high bit: x != '\n'
	notQuoteAmp := ((x | ones*0x04) ^ ones*'&') + ones*0x7f // '"' is '&' without 0x04
	notAngle := ((x | ones*0x02) ^ ones*'>') + ones*0x7f    // '<' is '>' without 0x02
	notBackslash := (x ^ ones*'\\') + ones*0x7f
	return (w | notNL&^notCtrl | ^(notQuoteAmp & notAngle & notBackslash)) & high
}

// handleTrees streams the job's stand trees as NDJSON ({"tree":"..."} per
// line), from the first tree found, following the enumeration live and
// terminating when the job reaches a terminal state (or the client
// disconnects). Trees are spooled to disk, so a late subscriber still
// receives the full stand without the daemon buffering it in memory. Each
// chunk the spool delivers is one write and one flush: a follower that has
// caught up receives every block as it is appended, one that is behind
// receives the backlog 64 KiB of lines at a time.
func (m *Manager) handleTrees(w http.ResponseWriter, r *http.Request) {
	job, ok := m.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no such job"))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	rc := http.NewResponseController(w)
	var recs []byte
	err := job.spool.Stream(r.Context(), func(lines []byte) error {
		// Best-effort: unsupported on recording/test writers.
		rc.SetWriteDeadline(time.Now().Add(streamWriteTimeout)) //nolint:errcheck
		recs = appendTreeRecords(recs[:0], lines, job.spool.plain)
		if _, err := w.Write(recs); err != nil {
			return err
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	})
	_ = err // the stream ended: spool drained, client gone, or job finished
}
