package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"gentrius/internal/faultinject"
	"gentrius/internal/retry"
)

// journalFile is the job journal's name inside the data directory.
const journalFile = "journal.ndjson"

// journalRecord is one NDJSON line of the write-ahead job journal. Two
// operations exist: "submit" carries the full request (so a restarted
// daemon can re-run the job), "state" records a lifecycle transition and,
// for terminal states, the result summary (so finished jobs survive
// restarts without re-running).
type journalRecord struct {
	Op    string      `json:"op"` // "submit" | "state"
	ID    string      `json:"id"`
	Time  string      `json:"time,omitempty"`
	Req   *JobRequest `json:"req,omitempty"`
	ReqID string      `json:"req_id,omitempty"` // originating HTTP request id
	State State       `json:"state,omitempty"`
	Error string      `json:"error,omitempty"`

	// Terminal-state result summary.
	Stop       string `json:"stop,omitempty"`
	StandTrees int64  `json:"stand_trees,omitempty"`
	States     int64  `json:"states,omitempty"`
	DeadEnds   int64  `json:"dead_ends,omitempty"`
}

// journal is the append-only NDJSON log of job moves. Records are written
// whole and fsynced — a submit record before its job can be seen or run, a
// terminal record before the job's Done() and spool close (the package
// comment has the exact guarantee) — so a SIGKILL loses at most the record
// being written, and a torn tail is tolerated on replay.
type journal struct {
	mu    sync.Mutex
	f     *os.File
	fault *faultinject.Injector
	m     *Metrics
	retry retry.Policy // m's policy for the "journal" site
}

// openJournal replays an existing journal, truncates a torn final record
// (the one write a SIGKILL can interrupt) and opens it for appending.
func openJournal(path string, fault *faultinject.Injector, m *Metrics) (*journal, []journalRecord, error) {
	var records []journalRecord
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, fmt.Errorf("service: journal: %w", err)
	}
	valid := 0 // bytes of intact records; appends must start here
	for valid < len(data) {
		i := bytes.IndexByte(data[valid:], '\n')
		if i < 0 {
			break // torn tail: record without its newline
		}
		line := data[valid : valid+i]
		if len(line) > 0 {
			var rec journalRecord
			if err := json.Unmarshal(line, &rec); err != nil {
				// A torn write can only affect the tail (records are
				// appended whole); everything before it is intact.
				break
			}
			records = append(records, rec)
		}
		valid += i + 1
	}
	if valid < len(data) {
		// Drop the torn tail so the next record starts on a boundary
		// instead of gluing onto the partial line.
		if err := os.Truncate(path, int64(valid)); err != nil {
			return nil, nil, fmt.Errorf("service: journal truncate: %w", err)
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("service: journal: %w", err)
	}
	return &journal{f: f, fault: fault, m: m, retry: m.RetryPolicy("journal")}, records, nil
}

// append writes one record with fsync, retrying transient failures with
// capped exponential backoff. A record that still cannot be written is
// dropped (counted in JournalDropped): the journal is a durability aid,
// and losing a record must never take down a healthy enumeration.
func (j *journal) append(rec journalRecord) {
	if j == nil {
		return
	}
	rec.Time = time.Now().UTC().Format(time.RFC3339Nano)
	data, err := json.Marshal(&rec)
	if err != nil {
		j.m.JournalDropped.Inc()
		return
	}
	data = append(data, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return
	}
	err = j.retry.Do(nil, func() error {
		if err := j.fault.Err(faultinject.JournalWrite, "write"); err != nil {
			return err
		}
		if _, err := j.f.Write(data); err != nil {
			return err
		}
		return j.f.Sync()
	})
	if err != nil {
		j.m.JournalDropped.Inc()
		return
	}
	j.m.JournalRecords.Inc()
}

// close releases the append handle (further appends are dropped silently).
func (j *journal) close() {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f != nil {
		j.f.Close()
		j.f = nil
	}
}
