package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"gentrius"
	"gentrius/internal/obs"
)

// smallRequest is a 5-taxon job whose stand enumerates instantly.
func smallRequest() JobRequest {
	return JobRequest{Trees: []string{"((A,B),(C,D));", "((A,B),(C,E));"}}
}

// hugeRequest interleaves two long caterpillar chains: effectively
// unbounded, so the job runs until cancelled.
func hugeRequest() JobRequest {
	cat := func(prefix string) string {
		s := "(A,B)"
		for i := 0; i < 12; i++ {
			s = "(" + s + "," + fmt.Sprintf("%s%d", prefix, i) + ")"
		}
		return "((" + s + ",C),D);"
	}
	return JobRequest{
		Trees:    []string{cat("x"), cat("y")},
		MaxTrees: -1, MaxStates: -1, MaxTimeSeconds: -1,
	}
}

func newTestManager(t *testing.T, cfg Config) *Manager {
	t.Helper()
	if cfg.DataDir == "" {
		cfg.DataDir = t.TempDir()
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		m.Shutdown(ctx) //nolint:errcheck // best-effort cleanup
	})
	return m
}

func waitDone(t *testing.T, j *Job) {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(30 * time.Second):
		t.Fatalf("job %s did not reach a terminal state (state %s)", j.ID(), j.Status().State)
	}
}

// waitSpooled blocks until the job has streamed at least one tree, proving
// it is genuinely mid-enumeration.
func waitSpooled(t *testing.T, j *Job) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for j.Status().TreesSpooled == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("job %s spooled no trees (state %s)", j.ID(), j.Status().State)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestJobLifecycle(t *testing.T) {
	m := newTestManager(t, Config{Workers: 2, Checkpoint: true})
	job, err := m.Submit(smallRequest())
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, job)
	st := job.Status()
	if st.State != StateDone || !st.Complete {
		t.Fatalf("state %s complete=%v, want done+complete: %+v", st.State, st.Complete, st)
	}
	if st.StandTrees == 0 || st.TreesSpooled != st.StandTrees {
		t.Fatalf("spooled %d trees, counters say %d", st.TreesSpooled, st.StandTrees)
	}
	if st.CheckpointFile != "" {
		t.Fatalf("exhausted job wrote a checkpoint: %s", st.CheckpointFile)
	}
	// The spool replays the full stand to a late subscriber.
	var got []string
	err = job.spool.Stream(context.Background(), func(chunk []byte) error {
		got = append(got, strings.Split(strings.TrimSuffix(string(chunk), "\n"), "\n")...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(got)) != st.StandTrees {
		t.Fatalf("stream replayed %d trees, want %d", len(got), st.StandTrees)
	}
}

func TestCancelRunningJobCheckpoints(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1, Checkpoint: true})
	job, err := m.Submit(hugeRequest())
	if err != nil {
		t.Fatal(err)
	}
	waitSpooled(t, job)
	if !m.Cancel(job.ID()) {
		t.Fatal("cancel reported unknown job")
	}
	waitDone(t, job)
	st := job.Status()
	if st.State != StateCancelled || st.StopReason != "cancelled" {
		t.Fatalf("state %s stop %q, want cancelled", st.State, st.StopReason)
	}
	if st.CheckpointFile == "" {
		t.Fatal("cancelled serial job left no checkpoint")
	}
	f, err := os.Open(st.CheckpointFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := gentrius.ReadCheckpoint(f); err != nil {
		t.Fatalf("checkpoint unreadable: %v", err)
	}
}

func TestShutdownCheckpointsInFlight(t *testing.T) {
	m, err := New(Config{Workers: 1, DataDir: t.TempDir(), Checkpoint: true})
	if err != nil {
		t.Fatal(err)
	}
	job, err := m.Submit(hugeRequest())
	if err != nil {
		t.Fatal(err)
	}
	waitSpooled(t, job)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	st := job.Status()
	if st.State != StateCancelled {
		t.Fatalf("state after shutdown %s, want cancelled", st.State)
	}
	if st.CheckpointFile == "" {
		t.Fatal("shutdown left no checkpoint for the in-flight serial job")
	}
	if _, err := m.Submit(smallRequest()); err != ErrShuttingDown {
		t.Fatalf("Submit after Shutdown = %v, want ErrShuttingDown", err)
	}
}

func TestQueueFullRejects(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1, QueueCap: 1})
	// Occupy the single worker, then fill the 1-slot queue.
	blocker, err := m.Submit(hugeRequest())
	if err != nil {
		t.Fatal(err)
	}
	waitSpooled(t, blocker)
	if _, err := m.Submit(smallRequest()); err != nil {
		t.Fatalf("queueing one job: %v", err)
	}
	if _, err := m.Submit(smallRequest()); err != ErrQueueFull {
		t.Fatalf("Submit on a full queue = %v, want ErrQueueFull", err)
	}
	m.Cancel(blocker.ID())
}

func TestCancelQueuedJob(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1, QueueCap: 4})
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
	waitDone(t, queued) // must not wait behind the blocker
	if st := queued.Status(); st.State != StateCancelled {
		t.Fatalf("queued-then-cancelled job state %s", st.State)
	}
	m.Cancel(blocker.ID())
	waitDone(t, blocker)
}

func TestSubmitRejectsBadRequests(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1})
	for _, req := range []JobRequest{
		{},
		{Trees: []string{"((A,B)"}},
		{Trees: []string{"((A,B),(C,D));"}, Species: "x;", PAM: "1 1\nA 1"},
	} {
		if _, err := m.Submit(req); err == nil {
			t.Fatalf("request %+v accepted, want error", req)
		}
	}
}

// TestHTTPEndToEnd drives the full HTTP surface: submit, poll, stream
// NDJSON, cancel a long-running job, and check the stream of a cancelled
// job terminates.
func TestHTTPEndToEnd(t *testing.T) {
	m := newTestManager(t, Config{Workers: 2, Checkpoint: true})
	mux := http.NewServeMux()
	m.RegisterRoutes(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	post := func(path string, body any) (*http.Response, []byte) {
		t.Helper()
		var buf bytes.Buffer
		if body != nil {
			if err := json.NewEncoder(&buf).Encode(body); err != nil {
				t.Fatal(err)
			}
		}
		resp, err := http.Post(srv.URL+path, "application/json", &buf)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out bytes.Buffer
		out.ReadFrom(resp.Body) //nolint:errcheck
		return resp, out.Bytes()
	}

	// Health.
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}

	// Submit a small job and poll it to completion.
	resp, body := post("/jobs", smallRequest())
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var st Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	job, ok := m.Get(st.ID)
	if !ok {
		t.Fatalf("submitted job %s not in manager", st.ID)
	}
	waitDone(t, job)

	// Stream its trees as NDJSON; every line must carry a tree.
	resp, err = http.Get(srv.URL + "/jobs/" + st.ID + "/trees")
	if err != nil {
		t.Fatal(err)
	}
	lines := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var rec struct {
			Tree string `json:"tree"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil || rec.Tree == "" {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		lines++
	}
	resp.Body.Close()
	if int64(lines) != job.Status().StandTrees {
		t.Fatalf("streamed %d trees, want %d", lines, job.Status().StandTrees)
	}

	// Unknown fields are rejected.
	resp, _ = post("/jobs", map[string]any{"treez": []string{"((A,B),(C,D));"}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field: %d, want 400", resp.StatusCode)
	}

	// Submit a never-ending job, follow its stream, cancel it over HTTP,
	// and check the follower terminates.
	resp, body = post("/jobs", hugeRequest())
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit huge: %d %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	long, _ := m.Get(st.ID)
	waitSpooled(t, long)

	streamDone := make(chan int, 1)
	go func() {
		resp, err := http.Get(srv.URL + "/jobs/" + st.ID + "/trees")
		if err != nil {
			streamDone <- -1
			return
		}
		defer resp.Body.Close()
		n := 0
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
		for sc.Scan() {
			n++
		}
		streamDone <- n
	}()

	resp, body = post("/jobs/"+st.ID+"/cancel", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: %d %s", resp.StatusCode, body)
	}
	waitDone(t, long)
	select {
	case n := <-streamDone:
		if n <= 0 {
			t.Fatalf("follower saw %d trees before the cancelled stream closed", n)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("NDJSON follower did not terminate after cancellation")
	}
	if got := long.Status(); got.State != StateCancelled || got.CheckpointFile == "" {
		t.Fatalf("cancelled job: state %s, checkpoint %q", got.State, got.CheckpointFile)
	}

	// The job list shows both jobs; a missing id 404s.
	resp, err = http.Get(srv.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list []Status
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list) < 2 {
		t.Fatalf("job list has %d entries, want >= 2", len(list))
	}
	resp, err = http.Get(srv.URL + "/jobs/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing job: %d, want 404", resp.StatusCode)
	}
}

// TestStatsAndHealthEndpoints: GET /jobs/{id}/stats serves the per-job
// estimator view (counters, fraction explored, queue wait) and /healthz
// reports uptime, jobs by state and dropped-write counters. Per-job metric
// families appear on the registry the Metrics were built on.
func TestStatsAndHealthEndpoints(t *testing.T) {
	reg := obs.NewRegistry()
	m := newTestManager(t, Config{Workers: 1, Checkpoint: true, Metrics: NewMetrics(reg)})
	mux := http.NewServeMux()
	m.RegisterRoutes(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	getJSON := func(path string, out any) *http.Response {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
				t.Fatalf("GET %s: %v", path, err)
			}
		}
		return resp
	}

	job, err := m.Submit(smallRequest())
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, job)

	var stats JobStats
	if resp := getJSON("/jobs/"+job.ID()+"/stats", &stats); resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: %d", resp.StatusCode)
	}
	st := job.Status()
	if stats.ID != job.ID() || stats.State != StateDone {
		t.Fatalf("stats identify %s/%s, want %s/done", stats.ID, stats.State, job.ID())
	}
	if stats.StandTrees != st.StandTrees || stats.TreesSpooled != st.TreesSpooled {
		t.Fatalf("stats counters %+v disagree with status %+v", stats, st)
	}
	if stats.FractionExplored != 1 {
		t.Fatalf("exhausted job reports fraction %v, want 1", stats.FractionExplored)
	}
	if stats.LeavesVisited != st.StandTrees+stats.DeadEnds {
		t.Fatalf("leaves %d, want trees %d + dead ends %d",
			stats.LeavesVisited, st.StandTrees, stats.DeadEnds)
	}
	if resp := getJSON("/jobs/nope/stats", &stats); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing job stats: %d, want 404", resp.StatusCode)
	}

	// A running job serves a live estimator view with an ETA.
	long, err := m.Submit(hugeRequest())
	if err != nil {
		t.Fatal(err)
	}
	waitSpooled(t, long)
	var live JobStats
	if resp := getJSON("/jobs/"+long.ID()+"/stats", &live); resp.StatusCode != http.StatusOK {
		t.Fatalf("running stats: %d", resp.StatusCode)
	}
	if live.State != StateRunning {
		t.Fatalf("live stats state %s, want running", live.State)
	}
	if live.FractionExplored < 0 || live.FractionExplored >= 1 {
		t.Fatalf("live fraction %v, want [0,1)", live.FractionExplored)
	}
	if live.ElapsedSeconds <= 0 {
		t.Fatalf("live elapsed %v, want > 0", live.ElapsedSeconds)
	}

	// Health: ok status, positive uptime, one done + one running job, no
	// dropped writes.
	var h Health
	if resp := getJSON("/healthz", &h); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	if h.Status != "ok" || h.UptimeSeconds <= 0 {
		t.Fatalf("health %+v, want ok with positive uptime", h)
	}
	if h.Jobs[StateDone] != 1 || h.Jobs[StateRunning] != 1 {
		t.Fatalf("health jobs %v, want 1 done + 1 running", h.Jobs)
	}
	if h.JournalDropped != 0 || h.SpoolDropped != 0 || h.CheckpointDropped != 0 {
		t.Fatalf("health reports dropped writes on a healthy run: %+v", h)
	}

	// The four per-job numbers are the job's own, not series of the registry.
	if js := job.Stats(); js.StandTrees != st.StandTrees || js.IntermediateStates != st.Intermediate ||
		js.DeadEnds != st.DeadEnds || js.FractionExplored != 1 {
		t.Fatalf("Stats() %+v disagrees with Status() %+v of a finished job", js, st)
	}
	for name := range reg.Snapshot() {
		if strings.Contains(name, job.ID()) {
			t.Fatalf("series %s carries a job id", name)
		}
	}
	if m.m.QueueWait.Count() < 2 {
		t.Fatalf("queue-wait histogram has %d observations, want >= 2", m.m.QueueWait.Count())
	}
	if m.m.ExecTime.Count() < 1 {
		t.Fatalf("exec-time histogram has %d observations, want >= 1", m.m.ExecTime.Count())
	}

	if !m.Cancel(long.ID()) {
		t.Fatal("cancel of the running job failed")
	}
	waitDone(t, long)
}

// TestResumeFromDaemonCheckpoint closes the loop the daemon advertises:
// a checkpoint written on cancel resumes in-process and finishes with the
// totals of an uninterrupted run. A moderate job (finite stand) is
// cancelled partway via the daemon, then resumed directly.
func TestResumeFromDaemonCheckpoint(t *testing.T) {
	cat := func(prefix string, n int) string {
		s := "(A,B)"
		for i := 0; i < n; i++ {
			s = "(" + s + "," + fmt.Sprintf("%s%d", prefix, i) + ")"
		}
		return "((" + s + ",C),D);"
	}
	treesJSON := []string{cat("x", 5), cat("y", 5)}

	cons, _, err := gentrius.ReadTrees(strings.NewReader(strings.Join(treesJSON, "\n")), nil)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := gentrius.EnumerateStand(cons, gentrius.Options{
		Threads: 1, InitialTree: gentrius.UseInitialTreeHeuristic,
		MaxTrees: -1, MaxStates: -1, MaxTime: -1,
	})
	if err != nil {
		t.Fatal(err)
	}

	m := newTestManager(t, Config{Workers: 1, Checkpoint: true})
	job, err := m.Submit(JobRequest{Trees: treesJSON, MaxTrees: ref.StandTrees / 2, MaxStates: -1, MaxTimeSeconds: -1})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, job)
	st := job.Status()
	if st.State != StateDone || st.Complete {
		t.Fatalf("limited job state %s complete=%v, want done+incomplete", st.State, st.Complete)
	}
	if st.CheckpointFile == "" {
		t.Fatal("stopping-rule job left no checkpoint")
	}
	f, err := os.Open(st.CheckpointFile)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := gentrius.ReadCheckpoint(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	res, err := gentrius.EnumerateStand(cons, gentrius.Options{
		Threads: 1, MaxTrees: -1, MaxStates: -1, MaxTime: -1,
		Checkpoint: &gentrius.CheckpointPolicy{Resume: cp},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete() || res.StandTrees != ref.StandTrees ||
		res.IntermediateStates != ref.IntermediateStates {
		t.Fatalf("resumed run %d trees / %d states (stop %v), uninterrupted %d / %d",
			res.StandTrees, res.IntermediateStates, res.Stop,
			ref.StandTrees, ref.IntermediateStates)
	}
}
