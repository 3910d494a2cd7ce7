package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gentrius"
	"gentrius/internal/faultinject"
	"gentrius/internal/obs"
	"gentrius/internal/retry"
)

// crashChildEnv holds the data directory when this test binary re-execs
// itself as the crash-drill daemon (see TestMain).
const crashChildEnv = "GENTRIUS_SERVICE_CRASH_CHILD"

func TestMain(m *testing.M) {
	if dir := os.Getenv(crashChildEnv); dir != "" {
		runCrashChild(dir)
		return
	}
	os.Exit(m.Run())
}

// crashTrees is the crash drill's job: two interleaved caterpillars with a
// 8989-tree stand — big enough that the throttled child is killed mid-run.
func crashTrees() []string {
	cat := func(prefix string, n int) string {
		s := "(A,B)"
		for i := 0; i < n; i++ {
			s = "(" + s + "," + fmt.Sprintf("%s%d", prefix, i) + ")"
		}
		return "((" + s + ",C),D);"
	}
	return []string{cat("x", 6), cat("y", 6)}
}

// runCrashChild is the subprocess side of TestKillAndResumeExactCounters:
// a minimal daemon that recovers (or submits) the drill job, prints its
// terminal Status, and exits. The parent SIGKILLs the first incarnation.
func runCrashChild(dir string) {
	fault, err := faultinject.FromEnv()
	if err == nil {
		var m *Manager
		m, err = New(Config{
			Workers:            1,
			DataDir:            dir,
			Checkpoint:         true,
			CheckpointInterval: time.Nanosecond,
			Fault:              fault,
		})
		if err == nil {
			var job *Job
			if jobs := m.List(); len(jobs) > 0 {
				job = jobs[0]
			} else {
				job, err = m.Submit(JobRequest{
					Trees: crashTrees(), MaxTrees: -1, MaxStates: -1, MaxTimeSeconds: -1,
				})
			}
			if err == nil {
				fmt.Printf("CHILD job=%s resumed=%d\n", job.ID(), m.Recovery().Resumed)
				<-job.Done()
				out, _ := json.Marshal(job.Status())
				fmt.Printf("RESULT %s\n", out)
				os.Exit(0)
			}
		}
	}
	fmt.Println("CHILD-ERROR", err)
	os.Exit(1)
}

// TestKillAndResumeExactCounters is the ISSUE's crash-recovery acceptance
// criterion, with a real SIGKILL: a daemon subprocess running a serial job
// with periodic checkpoints is killed -9 mid-enumeration; a second daemon
// on the same data directory must resume the job from its journal and
// latest checkpoint and finish with counters exactly equal to an
// uninterrupted run.
func TestKillAndResumeExactCounters(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess crash drill")
	}
	cons, _, err := gentrius.ReadTrees(strings.NewReader(strings.Join(crashTrees(), "\n")), nil)
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

	// Incarnation 1: throttled to ~1ms per tree so the kill lands mid-run,
	// SIGKILLed once a periodic checkpoint and some spooled trees exist.
	dir := t.TempDir()
	var out1 bytes.Buffer
	cmd := exec.Command(os.Args[0])
	cmd.Stdout, cmd.Stderr = &out1, &out1
	cmd.Env = append(os.Environ(),
		crashChildEnv+"="+dir,
		faultinject.EnvVar+"=seed=1;treestream.every=1;treestream.delay=1ms")
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	ckpt := filepath.Join(dir, "j000001.ckpt")
	spoolPath := filepath.Join(dir, "j000001.trees")
	deadline := time.Now().Add(60 * time.Second)
	for {
		select {
		case err := <-exited:
			t.Fatalf("child finished before it could be killed (%v):\n%s", err, out1.String())
		default:
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			t.Fatalf("no periodic checkpoint appeared:\n%s", out1.String())
		}
		_, ckptErr := os.Stat(ckpt)
		fi, spoolErr := os.Stat(spoolPath)
		if ckptErr == nil && spoolErr == nil && fi.Size() > 0 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	<-exited

	// Incarnation 2: no throttle; must resume and finish.
	var out2 bytes.Buffer
	cmd2 := exec.Command(os.Args[0])
	cmd2.Stdout, cmd2.Stderr = &out2, &out2
	cmd2.Env = append(os.Environ(), crashChildEnv+"="+dir, faultinject.EnvVar+"=")
	done2 := make(chan error, 1)
	if err := cmd2.Start(); err != nil {
		t.Fatal(err)
	}
	go func() { done2 <- cmd2.Wait() }()
	select {
	case err := <-done2:
		if err != nil {
			t.Fatalf("restarted child failed (%v):\n%s", err, out2.String())
		}
	case <-time.After(120 * time.Second):
		cmd2.Process.Kill()
		t.Fatalf("restarted child hung:\n%s", out2.String())
	}

	if !strings.Contains(out2.String(), "resumed=1") {
		t.Fatalf("restarted child did not resume from the checkpoint:\n%s", out2.String())
	}
	var st Status
	for _, line := range strings.Split(out2.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "RESULT "); ok {
			if err := json.Unmarshal([]byte(rest), &st); err != nil {
				t.Fatalf("bad RESULT line %q: %v", rest, err)
			}
		}
	}
	if st.State != StateDone || !st.Complete || !st.Resumed {
		t.Fatalf("resumed job state=%s complete=%v resumed=%v, want done+complete+resumed:\n%s",
			st.State, st.Complete, st.Resumed, out2.String())
	}
	if st.StandTrees != ref.StandTrees || st.Intermediate != ref.IntermediateStates ||
		st.DeadEnds != ref.DeadEnds {
		t.Fatalf("resumed counters %d/%d/%d, uninterrupted %d/%d/%d",
			st.StandTrees, st.Intermediate, st.DeadEnds,
			ref.StandTrees, ref.IntermediateStates, ref.DeadEnds)
	}
	// The spool is at-least-once: everything the kill interrupted is
	// re-found on resume, so no stand tree is missing from it.
	if st.TreesSpooled < st.StandTrees {
		t.Fatalf("spool holds %d trees, stand has %d", st.TreesSpooled, st.StandTrees)
	}
}

// TestRestartAdoptsFinishedJobs: a manager restarted on the same data dir
// re-registers finished jobs from the journal — results, spools and
// checkpoints intact, no recomputation — and continues the job-ID sequence.
func TestRestartAdoptsFinishedJobs(t *testing.T) {
	dir := t.TempDir()
	m1 := newTestManager(t, Config{Workers: 2, DataDir: dir, Checkpoint: true})
	doneJob, err := m1.Submit(smallRequest())
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, doneJob)
	cancelled, err := m1.Submit(hugeRequest())
	if err != nil {
		t.Fatal(err)
	}
	waitSpooled(t, cancelled)
	m1.Cancel(cancelled.ID())
	waitDone(t, cancelled)
	want := doneJob.Status()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	m2 := newTestManager(t, Config{Workers: 2, DataDir: dir, Checkpoint: true})
	if rec := m2.Recovery(); rec.Adopted != 2 || rec.Resumed+rec.Requeued+rec.Interrupted != 0 {
		t.Fatalf("recovery %+v, want 2 adopted", rec)
	}
	jobs := m2.List()
	if len(jobs) != 2 || jobs[0].ID() != doneJob.ID() || jobs[1].ID() != cancelled.ID() {
		t.Fatalf("adopted jobs %v, want [%s %s]", jobs, doneJob.ID(), cancelled.ID())
	}
	got := jobs[0].Status()
	if got.State != StateDone || !got.Complete || !got.Resumed ||
		got.StandTrees != want.StandTrees || got.TreesSpooled != want.TreesSpooled {
		t.Fatalf("adopted done job %+v, original %+v", got, want)
	}
	// The adopted spool still replays the full stand to a late subscriber.
	var lines int64
	if err := jobs[0].spool.Stream(context.Background(), func(chunk []byte) error {
		lines += int64(bytes.Count(chunk, []byte("\n")))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if lines != want.StandTrees {
		t.Fatalf("adopted spool replayed %d trees, want %d", lines, want.StandTrees)
	}
	if got := jobs[1].Status(); got.State != StateCancelled || got.StopReason != "cancelled" ||
		got.CheckpointFile == "" {
		t.Fatalf("adopted cancelled job %+v", got)
	}
	// New submissions continue the ID sequence past the adopted jobs.
	next, err := m2.Submit(smallRequest())
	if err != nil {
		t.Fatal(err)
	}
	if next.ID() != "j000003" {
		t.Fatalf("post-restart job id %s, want j000003", next.ID())
	}
	waitDone(t, next)
}

// writeJournal fabricates a crashed daemon's journal.
func writeJournal(t *testing.T, dir string, recs ...journalRecord) {
	t.Helper()
	var buf bytes.Buffer
	for _, rec := range recs {
		data, err := json.Marshal(&rec)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(data)
		buf.WriteByte('\n')
	}
	if err := os.WriteFile(filepath.Join(dir, journalFile), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestRestartResumesSerialJobFromCheckpoint fabricates the on-disk state a
// SIGKILL leaves behind — journal says running, a mid-run checkpoint, a
// partial spool — and checks the restarted manager finishes the job with
// the totals of an uninterrupted run.
func TestRestartResumesSerialJobFromCheckpoint(t *testing.T) {
	cat := func(prefix string) string {
		s := "(A,B)"
		for i := 0; i < 5; i++ {
			s = "(" + s + "," + fmt.Sprintf("%s%d", prefix, i) + ")"
		}
		return "((" + s + ",C),D);"
	}
	trees := []string{cat("x"), cat("y")}
	cons, _, err := gentrius.ReadTrees(strings.NewReader(strings.Join(trees, "\n")), nil)
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
	// A tree-limited run leaves the checkpoint a crash would have left.
	half, err := gentrius.EnumerateStand(cons, gentrius.Options{
		Threads: 1, InitialTree: gentrius.UseInitialTreeHeuristic,
		MaxTrees: ref.StandTrees / 3, MaxStates: -1, MaxTime: -1,
		Checkpoint: &gentrius.CheckpointPolicy{OnStop: true}, CollectTrees: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if half.Checkpoint == nil {
		t.Fatal("tree-limited run left no checkpoint")
	}

	dir := t.TempDir()
	if err := half.Checkpoint.WriteFile(filepath.Join(dir, "j000001.ckpt")); err != nil {
		t.Fatal(err)
	}
	spooled := strings.Join(half.Trees, "\n") + "\n" + "((A,B),(C" // torn tail
	if err := os.WriteFile(filepath.Join(dir, "j000001.trees"), []byte(spooled), 0o644); err != nil {
		t.Fatal(err)
	}
	writeJournal(t, dir,
		journalRecord{Op: "submit", ID: "j000001", Req: &JobRequest{
			Trees: trees, MaxTrees: -1, MaxStates: -1, MaxTimeSeconds: -1,
		}},
		journalRecord{Op: "state", ID: "j000001", State: StateRunning},
	)

	m := newTestManager(t, Config{Workers: 1, DataDir: dir, Checkpoint: true})
	if rec := m.Recovery(); rec.Resumed != 1 {
		t.Fatalf("recovery %+v, want 1 resumed", rec)
	}
	job, ok := m.Get("j000001")
	if !ok {
		t.Fatal("recovered job missing")
	}
	waitDone(t, job)
	st := job.Status()
	if st.State != StateDone || !st.Complete || !st.Resumed {
		t.Fatalf("resumed job %+v, want done+complete", st)
	}
	if st.StandTrees != ref.StandTrees || st.Intermediate != ref.IntermediateStates {
		t.Fatalf("resumed totals %d/%d, uninterrupted %d/%d",
			st.StandTrees, st.Intermediate, ref.StandTrees, ref.IntermediateStates)
	}
	if st.TreesSpooled < st.StandTrees {
		t.Fatalf("spool holds %d trees after resume, stand has %d", st.TreesSpooled, st.StandTrees)
	}
	if st.CheckpointFile != "" {
		t.Fatalf("exhausted resumed job still advertises checkpoint %s", st.CheckpointFile)
	}
}

// TestRestartInterruptsVersion1Checkpoint: a running job whose checkpoint
// is a version-1 serial frame stack (an older release's, which this one
// does not read) is recovered as interrupted, with no panic, while a running
// job on the same input whose checkpoint is a frontier still resumes, to the
// totals of an uninterrupted run.
func TestRestartInterruptsVersion1Checkpoint(t *testing.T) {
	const ckpts = "../../testdata/ckpt_a3eaaa2/"
	input, err := os.ReadFile(ckpts + "input.trees")
	if err != nil {
		t.Fatal(err)
	}
	trees := strings.Split(strings.TrimSpace(string(input)), "\n")
	cons, _, err := gentrius.ReadTrees(strings.NewReader(string(input)), nil)
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
	dir := t.TempDir()
	var records []journalRecord
	for _, job := range []struct{ id, file string }{{"j000001", "serial_v1.ckpt"}, {"j000002", "frontier_v2.ckpt"}} {
		data, err := os.ReadFile(ckpts + job.file)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, job.id+".ckpt"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		records = append(records,
			journalRecord{Op: "submit", ID: job.id, Req: &JobRequest{
				Trees: trees, MaxTrees: -1, MaxStates: -1, MaxTimeSeconds: -1,
			}},
			journalRecord{Op: "state", ID: job.id, State: StateRunning})
	}
	writeJournal(t, dir, records...)

	m := newTestManager(t, Config{Workers: 1, DataDir: dir, Checkpoint: true})
	if rec := m.Recovery(); rec.Interrupted != 1 || rec.Resumed != 1 {
		t.Fatalf("recovery %+v, want 1 interrupted and 1 resumed", rec)
	}
	v1, _ := m.Get("j000001")
	if st := v1.Status(); st.State != StateInterrupted || !strings.Contains(st.Error, "no usable checkpoint") {
		t.Fatalf("job with a version-1 checkpoint %+v, want interrupted with a no-checkpoint explanation", st)
	}
	v2, _ := m.Get("j000002")
	waitDone(t, v2)
	if st := v2.Status(); st.State != StateDone || !st.Complete || !st.Resumed ||
		st.StandTrees != ref.StandTrees || st.Intermediate != ref.IntermediateStates {
		t.Fatalf("job with a frontier checkpoint %+v, want done+complete at %d/%d",
			st, ref.StandTrees, ref.IntermediateStates)
	}
}

// TestRestartRequeuesQueuedJob: a job that never started reruns from
// scratch after a restart.
func TestRestartRequeuesQueuedJob(t *testing.T) {
	dir := t.TempDir()
	writeJournal(t, dir,
		journalRecord{Op: "submit", ID: "j000001", Req: &JobRequest{Trees: smallRequest().Trees}},
	)
	m := newTestManager(t, Config{Workers: 1, DataDir: dir})
	if rec := m.Recovery(); rec.Requeued != 1 {
		t.Fatalf("recovery %+v, want 1 requeued", rec)
	}
	job, _ := m.Get("j000001")
	waitDone(t, job)
	if st := job.Status(); st.State != StateDone || !st.Complete || st.StandTrees == 0 {
		t.Fatalf("requeued job %+v, want done+complete", st)
	}
}

// TestRestartInterruptsUnresumableJobs: a mid-run job that was never
// checkpointed (here a parallel one, resumable in principle but with no
// snapshot on disk) becomes terminal in state interrupted, its torn spool
// tail is truncated, and a second restart adopts it without re-marking it.
func TestRestartInterruptsUnresumableJobs(t *testing.T) {
	dir := t.TempDir()
	writeJournal(t, dir,
		journalRecord{Op: "submit", ID: "j000001", Req: &JobRequest{
			Trees: hugeRequest().Trees, Threads: 4,
			MaxTrees: -1, MaxStates: -1, MaxTimeSeconds: -1,
		}},
		journalRecord{Op: "state", ID: "j000001", State: StateRunning},
	)
	spooled := "((A,B),(C,D));\n((A,B),(C,E));\n((A,B),(C" // torn third line
	if err := os.WriteFile(filepath.Join(dir, "j000001.trees"), []byte(spooled), 0o644); err != nil {
		t.Fatal(err)
	}

	m := newTestManager(t, Config{Workers: 1, DataDir: dir})
	if rec := m.Recovery(); rec.Interrupted != 1 {
		t.Fatalf("recovery %+v, want 1 interrupted", rec)
	}
	job, _ := m.Get("j000001")
	st := job.Status()
	if st.State != StateInterrupted || !strings.Contains(st.Error, "no usable checkpoint") {
		t.Fatalf("job %+v, want interrupted with a no-checkpoint explanation", st)
	}
	if st.TreesSpooled != 2 {
		t.Fatalf("torn spool adopted with %d lines, want 2", st.TreesSpooled)
	}
	select {
	case <-job.Done():
	default:
		t.Fatal("interrupted job is not terminal")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	m2 := newTestManager(t, Config{Workers: 1, DataDir: dir})
	if rec := m2.Recovery(); rec.Adopted != 1 || rec.Interrupted != 0 {
		t.Fatalf("second restart recovery %+v, want 1 adopted", rec)
	}
	if st := func() Status { j, _ := m2.Get("j000001"); return j.Status() }(); st.State != StateInterrupted {
		t.Fatalf("second restart lost the interrupted state: %+v", st)
	}
}

// TestJournalSubmitPrecedesState: the WAL invariant — a job's submit
// record is durable before the job can run, so no state record ever lands
// ahead of its submit record, even for jobs that finish instantly.
func TestJournalSubmitPrecedesState(t *testing.T) {
	dir := t.TempDir()
	m := newTestManager(t, Config{Workers: 4, QueueCap: 16, DataDir: dir})
	var jobs []*Job
	for i := 0; i < 8; i++ {
		job, err := m.Submit(smallRequest())
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job)
	}
	for _, j := range jobs {
		waitDone(t, j)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	j, recs, err := openJournal(filepath.Join(dir, journalFile), nil, &Metrics{})
	if err != nil {
		t.Fatal(err)
	}
	j.close()
	submitted := map[string]bool{}
	for _, rec := range recs {
		switch rec.Op {
		case "submit":
			submitted[rec.ID] = true
		case "state":
			if !submitted[rec.ID] {
				t.Fatalf("state record (%s) for %s precedes its submit record", rec.State, rec.ID)
			}
		}
	}
	if len(submitted) != 8 {
		t.Fatalf("journal has %d submit records, want 8", len(submitted))
	}
}

// TestQueueCapSurvivesRecovery: recovered jobs queue beyond QueueCap and
// hold none of its budget — neither while they wait, nor when one of them is
// cancelled in the queue, nor once they have drained: cfg.QueueCap bounds
// new submissions throughout.
func TestQueueCapSurvivesRecovery(t *testing.T) {
	dir := t.TempDir()
	recs := []journalRecord{{Op: "submit", ID: "j000001", Req: &JobRequest{
		Trees: hugeRequest().Trees, MaxTrees: -1, MaxStates: -1, MaxTimeSeconds: -1,
	}}}
	for i := 2; i <= 3; i++ {
		recs = append(recs, journalRecord{Op: "submit", ID: fmt.Sprintf("j%06d", i),
			Req: &JobRequest{Trees: smallRequest().Trees}})
	}
	writeJournal(t, dir, recs...)
	m := newTestManager(t, Config{Workers: 1, QueueCap: 1, DataDir: dir})
	if rec := m.Recovery(); rec.Requeued != 3 {
		t.Fatalf("recovery %+v, want 3 requeued", rec)
	}
	// The first recovered job holds the one worker; the other two wait.
	// Cancelling one of them releases no budget, for it never held any: one
	// new job fits beside the remaining recovered one, a second does not.
	first, _ := m.Get("j000001")
	waitSpooled(t, first)
	second, _ := m.Get("j000002")
	m.Cancel(second.ID())
	waitDone(t, second)
	if st := second.Status(); st.State != StateCancelled {
		t.Fatalf("recovered job cancelled in the queue ended %s", st.State)
	}
	if _, err := m.Submit(smallRequest()); err != nil {
		t.Fatalf("queueing within cap beside a recovered job: %v", err)
	}
	if _, err := m.Submit(smallRequest()); err != ErrQueueFull {
		t.Fatalf("Submit past QueueCap after a recovered job was cancelled = %v, want ErrQueueFull", err)
	}
	m.Cancel(first.ID())
	for _, j := range m.List() {
		waitDone(t, j)
	}
	// The recovered jobs have drained; QueueCap=1 must still hold: one
	// running job, one queued job, and the next submission rejected.
	blocker, err := m.Submit(hugeRequest())
	if err != nil {
		t.Fatal(err)
	}
	waitSpooled(t, blocker)
	if _, err := m.Submit(smallRequest()); err != nil {
		t.Fatalf("queueing within cap: %v", err)
	}
	if _, err := m.Submit(smallRequest()); err != ErrQueueFull {
		t.Fatalf("Submit past QueueCap after recovery = %v, want ErrQueueFull", err)
	}
	m.Cancel(blocker.ID())
}

// TestRecoverySurfacesSpoolFailure: a journaled job whose spool cannot be
// reopened must not vanish from the job table — it is registered
// interrupted with the spool error and counted.
func TestRecoverySurfacesSpoolFailure(t *testing.T) {
	dir := t.TempDir()
	writeJournal(t, dir,
		journalRecord{Op: "submit", ID: "j000001", Req: &JobRequest{Trees: smallRequest().Trees}},
	)
	// A directory where the spool file should be makes adoption fail.
	if err := os.Mkdir(filepath.Join(dir, "j000001.trees"), 0o755); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	met := NewMetrics(reg)
	m := newTestManager(t, Config{Workers: 1, DataDir: dir, Metrics: met})
	if rec := m.Recovery(); rec.Interrupted != 1 {
		t.Fatalf("recovery %+v, want 1 interrupted", rec)
	}
	job, ok := m.Get("j000001")
	if !ok {
		t.Fatal("job with an unusable spool vanished from the table")
	}
	st := job.Status()
	if st.State != StateInterrupted || !strings.Contains(st.Error, "spool") {
		t.Fatalf("job %+v, want interrupted with a spool explanation", st)
	}
	select {
	case <-job.Done():
	default:
		t.Fatal("interrupted job is not terminal")
	}
	if got := reg.Snapshot()["gentriusd_jobs_interrupted_total"]; got != 1 {
		t.Fatalf("JobsInterrupted metric %v, want 1", got)
	}
}

// TestFinishedJobRemovesCheckpointRotation: a complete job discards both
// its periodic checkpoint and the .bak rotation, so a restart cannot
// resurrect a stale snapshot of finished work.
func TestFinishedJobRemovesCheckpointRotation(t *testing.T) {
	cat := func(prefix string) string {
		s := "(A,B)"
		for i := 0; i < 5; i++ {
			s = "(" + s + "," + fmt.Sprintf("%s%d", prefix, i) + ")"
		}
		return "((" + s + ",C),D);"
	}
	reg := obs.NewRegistry()
	met := NewMetrics(reg)
	dir := t.TempDir()
	m := newTestManager(t, Config{
		Workers: 1, DataDir: dir, Checkpoint: true, CheckpointInterval: time.Nanosecond, Metrics: met,
	})
	job, err := m.Submit(JobRequest{
		Trees: []string{cat("x"), cat("y")}, MaxTrees: -1, MaxStates: -1, MaxTimeSeconds: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, job)
	if st := job.Status(); st.State != StateDone || !st.Complete || st.CheckpointFile != "" {
		t.Fatalf("job %+v, want done+complete without a checkpoint", st)
	}
	// At least two periodic writes happened, so the .bak rotation existed.
	if got := reg.Snapshot()["gentriusd_checkpoint_writes_total"]; got < 2 {
		t.Fatalf("only %v checkpoint writes; the .bak rotation was never exercised", got)
	}
	for _, p := range []string{
		filepath.Join(dir, "j000001.ckpt"),
		filepath.Join(dir, "j000001.ckpt.bak"),
	} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("obsolete checkpoint file %s survived job completion (err=%v)", p, err)
		}
	}
}

// TestJournalTornTailTolerated: replay stops cleanly at a half-written
// final record and appending afterwards works.
func TestJournalTornTailTolerated(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, journalFile)
	var buf bytes.Buffer
	for _, rec := range []journalRecord{
		{Op: "submit", ID: "j000001", Req: &JobRequest{Trees: []string{"((A,B),(C,D));"}}},
		{Op: "state", ID: "j000001", State: StateRunning},
	} {
		data, _ := json.Marshal(&rec)
		buf.Write(data)
		buf.WriteByte('\n')
	}
	buf.WriteString(`{"op":"state","id":"j0000`) // the record the crash tore
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	j, recs, err := openJournal(path, nil, &Metrics{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Op != "submit" || recs[1].State != StateRunning {
		t.Fatalf("replayed %+v, want the 2 intact records", recs)
	}
	j.append(journalRecord{Op: "state", ID: "j000001", State: StateCancelled})
	j.close()
	_, recs, err = openJournal(path, nil, &Metrics{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || recs[2].State != StateCancelled {
		t.Fatalf("after re-append, replayed %+v", recs)
	}
}

// TestJournalRetriesInjectedWriteErrors: transient journal-write faults are
// retried (and counted under the journal's retry site); a persistent fault
// drops the record but never fails the job flow.
func TestJournalRetriesInjectedWriteErrors(t *testing.T) {
	reg := obs.NewRegistry()
	met := NewMetrics(reg)
	inj := faultinject.New(5).Set(faultinject.JournalWrite, faultinject.Rule{Nth: []int64{1, 2}})
	j, _, err := openJournal(filepath.Join(t.TempDir(), journalFile), inj, met)
	if err != nil {
		t.Fatal(err)
	}
	defer j.close()
	j.append(journalRecord{Op: "submit", ID: "j000001", Req: &JobRequest{}})
	snap := reg.Snapshot()
	if snap[`gentriusd_retry_total{site="journal"}`] != 2 ||
		snap["gentriusd_journal_records_total"] != 1 ||
		snap["gentriusd_journal_records_dropped_total"] != 0 {
		t.Fatalf("after 2 transient faults: %+v", snap)
	}
}

// TestSubmitJournalsOutsideTheLock: a submission whose record fails to be
// written and waits out its backoff holds no lock a reader of the job table
// takes: a GET of another job answers while it waits, and the submission
// then queues its job and returns it.
func TestSubmitJournalsOutsideTheLock(t *testing.T) {
	dir := t.TempDir()
	first := newTestManager(t, Config{DataDir: dir})
	other, err := first.Submit(smallRequest())
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, other)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := first.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	// The restart adopts the finished job without a journal write, so the
	// submission's record is the first one: it fails once, and its retry
	// waits until release.
	backoff, release := make(chan struct{}), make(chan struct{})
	met := &Metrics{retry: map[string]retry.Policy{"journal": {Sleep: func(time.Duration) {
		close(backoff)
		<-release
	}}}}
	inj := faultinject.New(1).Set(faultinject.JournalWrite, faultinject.Rule{Nth: []int64{1}})
	m := newTestManager(t, Config{DataDir: dir, Fault: inj, Metrics: met})
	mux := http.NewServeMux()
	m.RegisterRoutes(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	type submitted struct {
		job *Job
		err error
	}
	done := make(chan submitted, 1)
	go func() {
		job, err := m.Submit(smallRequest())
		done <- submitted{job, err}
	}()
	select {
	case <-backoff:
	case <-time.After(10 * time.Second):
		t.Fatal("the submission's record was not retried")
	}
	answered := make(chan int, 1)
	go func() {
		resp, err := http.Get(srv.URL + "/jobs/" + other.ID())
		if err != nil {
			answered <- 0
			return
		}
		resp.Body.Close()
		answered <- resp.StatusCode
	}()
	select {
	case code := <-answered:
		if code != http.StatusOK {
			t.Errorf("GET of job %s during the submission: %d", other.ID(), code)
		}
	case <-time.After(5 * time.Second):
		t.Error("GET of another job waited for the submission's journal write")
	}
	select {
	case <-done:
		t.Error("the submission returned before its record was written")
	default:
	}
	close(release)
	sub := <-done
	if sub.err != nil {
		t.Fatal(sub.err)
	}
	waitDone(t, sub.job)
	if st := sub.job.Status(); st.State != StateDone || inj.Fired(faultinject.JournalWrite) != 1 {
		t.Fatalf("the submitted job ended %s after %d failed writes", st.State, inj.Fired(faultinject.JournalWrite))
	}
}

// TestSpoolRetriesAndDropsUnderInjection: a block that fails transiently is
// retried into place; a block that fails every attempt is dropped and every
// one of its lines counted, while the job's own counters stay authoritative.
// The first tree is a block of its own; the second write is the rest of the
// small stand. A retry is a failure followed by another attempt, so the last
// failure of a dropped block is not one.
func TestSpoolRetriesAndDropsUnderInjection(t *testing.T) {
	for _, tc := range []struct {
		name    string
		nth     []int64
		retries float64
		dropped bool
	}{
		{"transient", []int64{2, 3, 4}, 3, false},    // 2nd block lands on its 4th attempt
		{"persistent", []int64{2, 3, 4, 5}, 3, true}, // 2nd block exhausts its budget
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			met := NewMetrics(reg)
			inj := faultinject.New(11).Set(faultinject.SpoolWrite, faultinject.Rule{Nth: tc.nth})
			m := newTestManager(t, Config{Workers: 1, Metrics: met, Fault: inj})
			job, err := m.Submit(smallRequest())
			if err != nil {
				t.Fatal(err)
			}
			waitDone(t, job)
			st := job.Status()
			if st.State != StateDone || st.StandTrees < 2 {
				t.Fatalf("job %+v, want done with >= 2 trees", st)
			}
			missing := int64(0)
			if tc.dropped {
				missing = st.StandTrees - 1 // every line of the second block
			}
			if st.TreesSpooled != st.StandTrees-missing {
				t.Fatalf("spooled %d of %d trees, want %d missing",
					st.TreesSpooled, st.StandTrees, missing)
			}
			snap := reg.Snapshot()
			const retried = `gentriusd_retry_total{site="spool"}`
			if snap[retried] != tc.retries ||
				snap["gentriusd_spool_lines_dropped_total"] != float64(missing) {
				t.Fatalf("retries %v dropped %v, want %v/%v", snap[retried],
					snap["gentriusd_spool_lines_dropped_total"], tc.retries, missing)
			}
			if h := m.Health(); h.SpoolDropped != missing {
				t.Fatalf("/healthz says %d spool lines dropped, want %d", h.SpoolDropped, missing)
			}
		})
	}
}

// TestHTTPBodyLimitReturns413 and friends: the hardened submit endpoint.
func TestHTTPRequestLimits(t *testing.T) {
	newServer := func(cfg Config) (*httptest.Server, func()) {
		m := newTestManager(t, cfg)
		mux := http.NewServeMux()
		m.RegisterRoutes(mux)
		srv := httptest.NewServer(mux)
		return srv, srv.Close
	}
	post := func(srv *httptest.Server, body []byte) (int, map[string]any) {
		t.Helper()
		resp, err := http.Post(srv.URL+"/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]any
		json.NewDecoder(resp.Body).Decode(&out) //nolint:errcheck
		return resp.StatusCode, out
	}

	t.Run("body-too-large", func(t *testing.T) {
		srv, close := newServer(Config{Workers: 1, MaxBodyBytes: 128})
		defer close()
		big, _ := json.Marshal(hugeRequest())
		if len(big) <= 128 {
			t.Fatalf("test body only %d bytes", len(big))
		}
		code, out := post(srv, big)
		if code != http.StatusRequestEntityTooLarge || out["max_body_bytes"] != float64(128) {
			t.Fatalf("got %d %v, want 413 with max_body_bytes", code, out)
		}
	})
	t.Run("too-many-constraints", func(t *testing.T) {
		srv, close := newServer(Config{Workers: 1, MaxConstraintTrees: 1})
		defer close()
		body, _ := json.Marshal(smallRequest())
		code, out := post(srv, body)
		if code != http.StatusBadRequest || out["limit"] != "constraint trees" ||
			out["got"] != float64(2) || out["max"] != float64(1) {
			t.Fatalf("got %d %v, want structured 400", code, out)
		}
	})
	t.Run("too-many-taxa", func(t *testing.T) {
		srv, close := newServer(Config{Workers: 1, MaxTaxa: 4})
		defer close()
		body, _ := json.Marshal(smallRequest()) // universe is A..E: 5 taxa
		code, out := post(srv, body)
		if code != http.StatusBadRequest || out["limit"] != "taxa" ||
			out["got"] != float64(5) || out["max"] != float64(4) {
			t.Fatalf("got %d %v, want structured 400", code, out)
		}
	})
	t.Run("within-limits", func(t *testing.T) {
		srv, close := newServer(Config{Workers: 1, MaxBodyBytes: 1 << 20, MaxConstraintTrees: 8, MaxTaxa: 32})
		defer close()
		body, _ := json.Marshal(smallRequest())
		if code, out := post(srv, body); code != http.StatusAccepted {
			t.Fatalf("got %d %v, want 202", code, out)
		}
	})
}

// TestPanickingJobFailsOnce: a serial job whose engine panics at its Nth step
// fails, and the daemon goes on: a job submitted after it completes. The
// failed job's error carries the panic value, and the failure is counted once
// — as a failed job and as a panicking run. A restart on the same data
// directory adopts the job as failed and does not run it again: the fault
// site sees no further step and the spool no further line.
func TestPanickingJobFailsOnce(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	inj := faultinject.New(1).Set(faultinject.EngineStep, faultinject.Rule{Nth: []int64{5000}})
	cfg := Config{Workers: 1, DataDir: dir, Checkpoint: true, CheckpointInterval: time.Millisecond,
		Metrics: NewMetrics(reg), Sink: &gentrius.ObsSink{Metrics: obs.NewSchedMetrics(reg)}, Fault: inj}
	m1 := newTestManager(t, cfg)
	bad, err := m1.Submit(hugeRequest())
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, bad)
	st := bad.Status()
	if st.State != StateFailed || !strings.Contains(st.Error, "injected panic at enginestep occurrence 5000") {
		t.Fatalf("panicking job %+v, want failed with the panic value", st)
	}
	good, err := m1.Submit(smallRequest())
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, good)
	if st := good.Status(); st.State != StateDone || !st.Complete {
		t.Fatalf("the job after the panic: %+v", st)
	}
	snap := reg.Snapshot()
	if snap["gentriusd_jobs_failed_total"] != 1 || snap["gentrius_worker_panics_recovered_total"] != 1 {
		t.Fatalf("%v jobs failed, %v runs panicked, want 1 and 1", snap["gentriusd_jobs_failed_total"],
			snap["gentrius_worker_panics_recovered_total"])
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	lines := func() int {
		b, err := os.ReadFile(filepath.Join(dir, bad.ID()+".trees"))
		if err != nil {
			t.Fatal(err)
		}
		return bytes.Count(b, []byte("\n"))
	}
	steps, spooled := inj.Count(faultinject.EngineStep), lines()

	cfg.Metrics, cfg.Sink = nil, nil
	m2 := newTestManager(t, cfg)
	if rec := m2.Recovery(); rec.Adopted != 2 || rec.Resumed+rec.Requeued+rec.Interrupted != 0 {
		t.Fatalf("recovery %+v, want 2 adopted", rec)
	}
	again, ok := m2.Get(bad.ID())
	if !ok {
		t.Fatal("the failed job vanished from the table")
	}
	if st := again.Status(); st.State != StateFailed || !strings.Contains(st.Error, "enginestep") {
		t.Fatalf("adopted job %+v, want failed with the panic value", st)
	}
	time.Sleep(50 * time.Millisecond) // a job that ran would step and spool by now
	if n, l := inj.Count(faultinject.EngineStep), lines(); n != steps || l != spooled {
		t.Fatalf("after the restart: %d engine steps, %d spool lines; before it %d and %d", n, l, steps, spooled)
	}
}
