package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gentrius"
)

// TestHTTPCheckpointRoutes: POST /jobs/{id}/checkpoint quiesces a running
// parallel job and persists a frontier snapshot; GET downloads the exact
// envelope bytes a resume consumes. Unknown jobs 404, finished jobs 409.
func TestHTTPCheckpointRoutes(t *testing.T) {
	m := newTestManager(t, Config{Workers: 2, MaxThreads: 4})
	mux := http.NewServeMux()
	m.RegisterRoutes(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	req := hugeRequest()
	req.Threads = 4
	job, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitSpooled(t, job)

	resp, err := http.Post(srv.URL+"/jobs/"+job.ID()+"/checkpoint", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST checkpoint: %d (%+v)", resp.StatusCode, st)
	}
	if st.CheckpointFile == "" || st.State != StateRunning {
		t.Fatalf("on-demand checkpoint status %+v, want a checkpoint file on a still-running job", st)
	}

	resp, err = http.Get(srv.URL + "/jobs/" + job.ID() + "/checkpoint")
	if err != nil {
		t.Fatal(err)
	}
	body, code := func() ([]byte, int) {
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body) //nolint:errcheck
		return buf.Bytes(), resp.StatusCode
	}()
	if code != http.StatusOK {
		t.Fatalf("GET checkpoint: %d %s", code, body)
	}
	cp, err := gentrius.ReadCheckpoint(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("downloaded envelope does not parse: %v", err)
	}
	if cp.Frontier == nil || len(cp.Frontier.Tasks) == 0 {
		t.Fatalf("parallel job checkpoint has no frontier: %+v", cp)
	}
	if !m.Cancel(job.ID()) {
		t.Fatal("cancel reported unknown job")
	}
	waitDone(t, job)

	// Unknown job: 404 on both verbs.
	for _, do := range []func() (*http.Response, error){
		func() (*http.Response, error) { return http.Post(srv.URL+"/jobs/zzz/checkpoint", "", nil) },
		func() (*http.Response, error) { return http.Get(srv.URL + "/jobs/zzz/checkpoint") },
	} {
		resp, err := do()
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("unknown job: %d, want 404", resp.StatusCode)
		}
	}

	// A finished job cannot be snapshotted on demand.
	done, err := m.Submit(smallRequest())
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, done)
	resp, err = http.Post(srv.URL+"/jobs/"+done.ID()+"/checkpoint", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("checkpoint of finished job: %d, want 409", resp.StatusCode)
	}
}

// TestRestartResumesParallelJobFromCheckpoint fabricates the on-disk state
// a SIGKILL leaves behind for a Threads > 1 job — journal says running, a
// mid-run frontier checkpoint, a partial spool — and checks the restarted
// manager resumes it (not interrupts it) and finishes with the totals of
// an uninterrupted run.
func TestRestartResumesParallelJobFromCheckpoint(t *testing.T) {
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
		Threads: 4, InitialTree: gentrius.UseInitialTreeHeuristic,
		MaxTrees: -1, MaxStates: -1, MaxTime: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// A tree-limited parallel run leaves the frontier checkpoint a crash
	// would have left.
	half, err := gentrius.EnumerateStand(cons, gentrius.Options{
		Threads: 4, InitialTree: gentrius.UseInitialTreeHeuristic,
		MaxTrees: ref.StandTrees / 3, MaxStates: -1, MaxTime: -1,
		Checkpoint: &gentrius.CheckpointPolicy{OnStop: true}, CollectTrees: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if half.Checkpoint == nil || half.Checkpoint.Frontier == nil {
		t.Fatalf("tree-limited parallel run left no frontier checkpoint: %+v", half.Checkpoint)
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
			Trees: trees, Threads: 4,
			MaxTrees: -1, MaxStates: -1, MaxTimeSeconds: -1,
		}},
		journalRecord{Op: "state", ID: "j000001", State: StateRunning},
	)

	m := newTestManager(t, Config{Workers: 1, MaxThreads: 4, DataDir: dir, Checkpoint: true})
	if rec := m.Recovery(); rec.Resumed != 1 || rec.Interrupted != 0 {
		t.Fatalf("recovery %+v, want the parallel job resumed", rec)
	}
	job, ok := m.Get("j000001")
	if !ok {
		t.Fatal("recovered job missing")
	}
	waitDone(t, job)
	st := job.Status()
	if st.State != StateDone || !st.Complete || !st.Resumed {
		t.Fatalf("resumed parallel job %+v, want done+complete", st)
	}
	if st.StandTrees != ref.StandTrees || st.Intermediate != ref.IntermediateStates ||
		st.DeadEnds != ref.DeadEnds {
		t.Fatalf("resumed totals %d/%d/%d, uninterrupted %d/%d/%d",
			st.StandTrees, st.Intermediate, st.DeadEnds,
			ref.StandTrees, ref.IntermediateStates, ref.DeadEnds)
	}
	if st.TreesSpooled < st.StandTrees {
		t.Fatalf("spool holds %d trees after resume, stand has %d", st.TreesSpooled, st.StandTrees)
	}
}
