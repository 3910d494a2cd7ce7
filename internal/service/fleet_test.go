package service

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"gentrius"
	"gentrius/internal/dist"
)

// TestFleetJobThroughManager submits a job to a manager whose Config.Fleet
// coordinator dispatches to one in-process dist worker, and checks the
// merged counters and spooled trees match a local reference run.
func TestFleetJobThroughManager(t *testing.T) {
	ref, err := gentrius.EnumerateStand(mustParse(t, smallRequest().Trees), gentrius.Options{
		Threads: 1, InitialTree: -1,
		MaxTrees: -1, MaxStates: -1, MaxTime: -1,
		CollectTrees: true,
	})
	if err != nil {
		t.Fatal(err)
	}

	var coord *dist.Coordinator
	w := dist.NewWorker(dist.WorkerConfig{
		Name: "w0",
		Dial: func(string) dist.CoordinatorClient {
			return &dist.LocalCoordinatorClient{C: coord}
		},
	})
	coord = dist.NewCoordinator(dist.Config{
		Peers: []dist.WorkerClient{&dist.LocalWorkerClient{WorkerName: "w0", W: w}},
	})

	m := newTestManager(t, Config{Fleet: coord})
	job, err := m.Submit(smallRequest())
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, job)

	st := job.Status()
	if st.State != StateDone {
		t.Fatalf("state %s, want done", st.State)
	}
	if st.StandTrees != ref.StandTrees || st.Intermediate != ref.IntermediateStates {
		t.Fatalf("fleet job counted trees=%d states=%d, serial trees=%d states=%d",
			st.StandTrees, st.Intermediate, ref.StandTrees, ref.IntermediateStates)
	}
	if st.TreesSpooled != ref.StandTrees {
		t.Fatalf("spooled %d trees, want %d", st.TreesSpooled, ref.StandTrees)
	}
	// The spool holds exactly the stand: the merged shards' blocks, each
	// tree once. (The fleet canonicalizes its input, which this input already
	// is, so the trees are the local run's byte for byte.)
	var got []string
	if err := job.spool.Stream(context.Background(), func(chunk []byte) error {
		got = append(got, strings.Split(strings.TrimSuffix(string(chunk), "\n"), "\n")...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	want := append([]string(nil), ref.Trees...)
	sort.Strings(got)
	sort.Strings(want)
	if !slices.Equal(got, want) {
		t.Fatalf("the spool's %d trees are not the stand's %d", len(got), len(want))
	}
}

func mustParse(t *testing.T, newicks []string) []*gentrius.Tree {
	t.Helper()
	cons, _, err := gentrius.ReadTrees(strings.NewReader(strings.Join(newicks, "\n")), nil)
	if err != nil {
		t.Fatal(err)
	}
	return cons
}

// TestDrainRejectsSubmissions: once Shutdown begins, POST /jobs answers 503
// with a Retry-After header and /healthz reports status "draining".
func TestDrainRejectsSubmissions(t *testing.T) {
	m := newTestManager(t, Config{})
	mux := http.NewServeMux()
	m.RegisterRoutes(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	body, _ := json.Marshal(smallRequest())
	resp, err := http.Post(srv.URL+"/jobs", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("POST /jobs during drain: status %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("503 during drain carries no Retry-After header")
	}

	hr, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	var h Health
	if err := json.NewDecoder(hr.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "draining" {
		t.Fatalf("healthz status %q during drain, want \"draining\"", h.Status)
	}
}
