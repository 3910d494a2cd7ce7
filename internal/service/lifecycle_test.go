package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"gentrius/internal/faultinject"
	"gentrius/internal/obs"
)

// readJournalFile parses the journal of a live manager: the complete lines on
// disk, without openJournal's truncation of a record still being written. It
// reports with t.Error, so a goroutine beside the test's may call it.
func readJournalFile(t *testing.T, dir string) []journalRecord {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, journalFile))
	if err != nil {
		t.Error(err)
	}
	var recs []journalRecord
	for len(data) > 0 {
		i := bytes.IndexByte(data, '\n')
		if i < 0 {
			break
		}
		var rec journalRecord
		if err := json.Unmarshal(data[:i], &rec); err != nil {
			t.Errorf("journal line %q: %v", data[:i], err)
		}
		recs = append(recs, rec)
		data = data[i+1:]
	}
	return recs
}

// pathTo is the shortest run of legal moves that takes a new job to a state.
var pathTo = map[State][]State{
	stateNone:        nil,
	StateQueued:      {StateQueued},
	StateRunning:     {StateQueued, StateRunning},
	StateDone:        {StateQueued, StateRunning, StateDone},
	StateCancelled:   {StateQueued, StateCancelled},
	StateFailed:      {StateQueued, StateRunning, StateFailed},
	StateInterrupted: {StateInterrupted},
}

// lifecycleView is everything a move may touch, as a test can see it.
type lifecycleView struct {
	state       State
	records     int64
	inTable     bool
	inQueue     bool
	doneClosed  bool
	spoolClosed bool
	byState     map[State]int
	metrics     map[string]float64
}

func viewOf(m *Manager, reg *obs.Registry, job *Job) lifecycleView {
	v := lifecycleView{state: job.Status().State, records: m.m.JournalRecords.Value(), metrics: map[string]float64{}}
	_, v.inTable = m.Get(job.id)
	m.mu.Lock()
	v.inQueue = slices.Contains(m.pending, job)
	v.byState = maps.Clone(m.byState)
	m.mu.Unlock()
	select {
	case <-job.Done():
		v.doneClosed = true
	default:
	}
	job.spool.mu.Lock()
	v.spoolClosed = job.spool.closed
	job.spool.mu.Unlock()
	snap := reg.Snapshot()
	for _, name := range []string{
		"gentriusd_jobs_queued", "gentriusd_jobs_running", "gentriusd_jobs_done_total",
		"gentriusd_jobs_cancelled_total", "gentriusd_jobs_failed_total", "gentriusd_jobs_interrupted_total",
	} {
		v.metrics[name] = snap[name]
	}
	return v
}

// TestTransitionTable walks every (from, to) pair of lifecycle. A legal move
// performs each of its effects exactly once — the state, one journal record,
// the gauges and the terminal counter, done and the spool closed iff the
// state is terminal, the job table and the queue; an illegal one, or a legal
// one asked of a job that is in another state, changes and journals nothing.
func TestTransitionTable(t *testing.T) {
	if len(lifecycle) != 7 {
		t.Fatalf("lifecycle has %d rows, want one per state (none + the six State values)", len(lifecycle))
	}
	for from, row := range lifecycle {
		if _, ok := pathTo[from]; !ok {
			t.Fatalf("state %q has a lifecycle row and no path in this test", from)
		}
		for _, to := range row {
			if _, ok := lifecycle[to]; !ok {
				t.Fatalf("lifecycle[%q] lists %q, which has no row of its own", from, to)
			}
		}
	}

	dir := t.TempDir()
	reg := obs.NewRegistry()
	m := newTestManager(t, Config{Workers: 1, DataDir: dir, Metrics: NewMetrics(reg)})
	// The one pool worker is held, so a job this test queues stays queued.
	blocker, err := m.Submit(hugeRequest())
	if err != nil {
		t.Fatal(err)
	}
	waitSpooled(t, blocker)

	terminalCounter := map[State]string{
		StateDone:        "gentriusd_jobs_done_total",
		StateCancelled:   "gentriusd_jobs_cancelled_total",
		StateFailed:      "gentriusd_jobs_failed_total",
		StateInterrupted: "gentriusd_jobs_interrupted_total",
	}
	b2i := func(b bool) int {
		if b {
			return 1
		}
		return 0
	}
	n := 0
	newJobIn := func(state State) *Job {
		n++
		id := fmt.Sprintf("t%03d", n)
		sp, err := newSpool(filepath.Join(dir, id+".trees"), nil, m.m)
		if err != nil {
			t.Fatal(err)
		}
		job := m.newJob(&Job{id: id, req: smallRequest(), spool: sp})
		at := stateNone
		for _, next := range pathTo[state] {
			if !m.transition(job, at, next, outcome{}) {
				t.Fatalf("setting up a %s job: move %q→%q refused", state, at, next)
			}
			at = next
		}
		return job
	}

	for from := range lifecycle {
		for to := range lifecycle {
			legal := slices.Contains(lifecycle[from], to)
			name := fmt.Sprintf("%s→%s", from, to)
			job := newJobIn(from)
			before := viewOf(m, reg, job)

			// Asked of a job that is somewhere else, even a legal move is refused.
			for other := range lifecycle {
				if other != from && m.transition(job, other, to, outcome{}) {
					t.Fatalf("%s: accepted as %q→%s for a job in state %q", name, other, to, from)
				}
			}
			if got := m.transition(job, from, to, outcome{}); got != legal {
				t.Fatalf("%s: transition = %v, the table says %v", name, got, legal)
			}
			after := viewOf(m, reg, job)

			if !legal {
				if fmt.Sprint(before) != fmt.Sprint(after) {
					t.Fatalf("%s is illegal and changed something:\nbefore %+v\nafter  %+v", name, before, after)
				}
				continue
			}
			if after.state != to {
				t.Fatalf("%s: state %q", name, after.state)
			}
			if after.records != before.records+1 {
				t.Fatalf("%s: %d journal records appended, want 1", name, after.records-before.records)
			}
			recs := readJournalFile(t, dir)
			if last := recs[len(recs)-1]; last.Op != "state" || last.ID != job.id || last.State != to {
				t.Fatalf("%s: journal ends with %+v", name, last)
			}
			if !after.inTable || after.inQueue != (to == StateQueued) {
				t.Fatalf("%s: in table %v, in queue %v", name, after.inTable, after.inQueue)
			}
			if after.doneClosed != terminal(to) || after.spoolClosed != terminal(to) {
				t.Fatalf("%s: done closed %v, spool closed %v, terminal %v",
					name, after.doneClosed, after.spoolClosed, terminal(to))
			}
			for s := range lifecycle {
				want := before.byState[s] + b2i(s == to) - b2i(s == from)
				if s == stateNone {
					want = 0 // a job in no state is not counted anywhere
				}
				if after.byState[s] != want {
					t.Fatalf("%s: %d jobs counted in %q, want %d", name, after.byState[s], s, want)
				}
			}
			for metric, was := range before.metrics {
				want := was
				switch metric {
				case "gentriusd_jobs_queued":
					want += float64(b2i(to == StateQueued) - b2i(from == StateQueued))
				case "gentriusd_jobs_running":
					want += float64(b2i(to == StateRunning) - b2i(from == StateRunning))
				case terminalCounter[to]:
					want++
				}
				if after.metrics[metric] != want {
					t.Fatalf("%s: %s = %v, want %v", name, metric, after.metrics[metric], want)
				}
			}
		}
	}
}

// TestTransitionReplayedJournalsNothing: the moves New re-enacts from the
// journal change the job like any other and append and count nothing.
func TestTransitionReplayedJournalsNothing(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	m := newTestManager(t, Config{Workers: 1, DataDir: dir, Metrics: NewMetrics(reg)})
	sp, err := newSpool(filepath.Join(dir, "t001.trees"), nil, m.m)
	if err != nil {
		t.Fatal(err)
	}
	job := m.newJob(&Job{id: "t001", req: smallRequest(), spool: sp, resumed: true})
	before := viewOf(m, reg, job)
	if !m.transition(job, stateNone, StateDone, outcome{journaled: true}) {
		t.Fatal("adopting a journaled done state was refused")
	}
	after := viewOf(m, reg, job)
	if after.state != StateDone || !after.doneClosed || !after.spoolClosed || !after.inTable {
		t.Fatalf("adopted job %+v", after)
	}
	if after.records != before.records || fmt.Sprint(after.metrics) != fmt.Sprint(before.metrics) {
		t.Fatalf("adoption journaled or counted:\nbefore %+v\nafter  %+v", before, after)
	}
	if st := job.Status(); st.Finished != st.Created {
		t.Fatalf("adopted job finished %s, want the journal's time %s", st.Finished, st.Created)
	}
}

// TestCancelledQueuedJobFreesItsSlot: a job cancelled while queued leaves the
// queue at once — its QueueCap slot and its gentriusd_jobs_queued unit with
// it — instead of holding both until a pool worker happens to pop it.
func TestCancelledQueuedJobFreesItsSlot(t *testing.T) {
	reg := obs.NewRegistry()
	m := newTestManager(t, Config{Workers: 1, QueueCap: 1, Metrics: NewMetrics(reg)})
	blocker, err := m.Submit(hugeRequest())
	if err != nil {
		t.Fatal(err)
	}
	waitSpooled(t, blocker)
	queued, err := m.Submit(smallRequest())
	if err != nil {
		t.Fatal(err)
	}
	m.Cancel(queued.ID())
	waitDone(t, queued)
	if got := reg.Snapshot()["gentriusd_jobs_queued"]; got != 0 {
		t.Fatalf("gentriusd_jobs_queued = %v with nothing queued", got)
	}
	if jobs := m.Health().Jobs; jobs[StateQueued] != 0 || jobs[StateRunning] != 1 || jobs[StateCancelled] != 1 {
		t.Fatalf("health jobs %v, want 1 running + 1 cancelled", jobs)
	} else if _, listed := jobs[StateQueued]; listed {
		t.Fatalf("health jobs %v lists a state no job is in", jobs)
	}
	next, err := m.Submit(smallRequest())
	if err != nil {
		t.Fatalf("Submit after the queued job was cancelled: %v", err)
	}
	m.Cancel(blocker.ID())
	waitDone(t, next)
	if st := next.Status(); st.State != StateDone {
		t.Fatalf("job queued into the freed slot ended %s", st.State)
	}
}

// TestCancelRacesWorkerPop races Cancel against the pool worker's pop, a
// thousand times: whoever loses is refused by the table, so each job ends in
// exactly one terminal state with exactly one terminal record, and a job
// that was cancelled first never starts.
func TestCancelRacesWorkerPop(t *testing.T) {
	const jobs = 1000
	dir := t.TempDir()
	reg := obs.NewRegistry()
	m := newTestManager(t, Config{Workers: 2, DataDir: dir, Metrics: NewMetrics(reg)})
	all := make([]*Job, 0, jobs)
	var cancels sync.WaitGroup
	for i := 0; i < jobs; i++ {
		job, err := m.Submit(smallRequest())
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, job)
		cancels.Add(1)
		go func(i int) {
			defer cancels.Done()
			if i%2 == 1 {
				runtime.Gosched()
			}
			m.Cancel(job.ID())
		}(i)
		waitDone(t, job) // one at a time: QueueCap is not what is tested
	}
	cancels.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	type history struct {
		terminal  []State
		cancelled bool // a cancelled record has been seen
	}
	seen := map[string]*history{}
	for _, rec := range readJournalFile(t, dir) {
		h := seen[rec.ID]
		if h == nil {
			h = &history{}
			seen[rec.ID] = h
		}
		switch {
		case rec.Op != "state":
		case terminal(rec.State):
			h.terminal = append(h.terminal, rec.State)
			h.cancelled = h.cancelled || rec.State == StateCancelled
		case h.cancelled:
			t.Fatalf("job %s journaled %q after it was cancelled", rec.ID, rec.State)
		}
	}
	ended := map[State]int{}
	for _, job := range all {
		h, st := seen[job.ID()], job.Status().State
		if h == nil || len(h.terminal) != 1 || h.terminal[0] != st {
			t.Fatalf("job %s ended %s with terminal records %v, want exactly that one", job.ID(), st, h)
		}
		ended[st]++
	}
	t.Logf("ended: %v", ended)
	if ended[StateDone]+ended[StateCancelled] != jobs {
		t.Fatalf("jobs ended %v, want only done and cancelled", ended)
	}
	snap := reg.Snapshot()
	if got := snap["gentriusd_jobs_done_total"] + snap["gentriusd_jobs_cancelled_total"]; got != jobs {
		t.Fatalf("terminal counters sum to %v, want %d", got, jobs)
	}
	if snap["gentriusd_jobs_queued"] != 0 || snap["gentriusd_jobs_running"] != 0 {
		t.Fatalf("gauges after the run: queued %v, running %v",
			snap["gentriusd_jobs_queued"], snap["gentriusd_jobs_running"])
	}
	if h := m.Health().Jobs; h[StateDone] != ended[StateDone] || h[StateCancelled] != ended[StateCancelled] || len(h) > 2 {
		t.Fatalf("health jobs %v, journal says %v", h, ended)
	}
}

// TestTransitionJournalOrdering pins what the package comment promises, with
// every append of the job's submit and terminal records delayed by three
// injected write failures: a job that can be seen has its submit record, and
// a job whose Done() has closed has its terminal record. Status may name the
// terminal state before the record is durable; that is logged, not required.
func TestTransitionJournalOrdering(t *testing.T) {
	dir := t.TempDir()
	// Occurrences 1-4 are the submit record's attempts, 5 the running
	// record, 6-9 the terminal record's.
	fault := faultinject.New(1).Set(faultinject.JournalWrite,
		faultinject.Rule{Nth: []int64{1, 2, 3, 6, 7, 8}})
	m := newTestManager(t, Config{Workers: 1, DataDir: dir, Fault: fault})

	has := func(id string, match func(journalRecord) bool) bool {
		return slices.ContainsFunc(readJournalFile(t, dir), func(rec journalRecord) bool {
			return rec.ID == id && match(rec)
		})
	}
	isSubmit := func(rec journalRecord) bool { return rec.Op == "submit" }
	isTerminal := func(rec journalRecord) bool { return rec.Op == "state" && terminal(rec.State) }

	stop := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		early := false
		for {
			select {
			case <-stop:
				t.Logf("Status named a terminal state ahead of its record: %v", early)
				return
			default:
			}
			for _, job := range m.List() {
				closed := false
				select {
				case <-job.Done():
					closed = true
				default:
				}
				st := job.Status().State
				// The file is read after the job was observed, so a record
				// that must precede the observation is in it.
				if !has(job.ID(), isSubmit) {
					t.Errorf("job %s is listed (state %s) and has no submit record", job.ID(), st)
					return
				}
				journaled := has(job.ID(), isTerminal)
				if closed && !journaled {
					t.Errorf("job %s: Done() closed and no terminal record is durable", job.ID())
					return
				}
				early = early || (terminal(st) && !journaled)
			}
		}
	}()

	job, err := m.Submit(smallRequest())
	if err != nil {
		t.Fatal(err)
	}
	if !has(job.ID(), isSubmit) {
		t.Fatal("Submit returned before the submit record was durable")
	}
	waitDone(t, job)
	if !has(job.ID(), isTerminal) {
		t.Fatal("Done() closed before the terminal record was durable")
	}
	close(stop)
	reader.Wait()
	if got := fault.Fired(faultinject.JournalWrite); got != 6 {
		t.Fatalf("%d journal writes failed, want the 6 the rule names", got)
	}
	if recs := readJournalFile(t, dir); len(recs) != 3 {
		t.Fatalf("an uneventful job wrote %d records, want 3: %+v", len(recs), recs)
	}
}
