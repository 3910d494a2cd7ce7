package dist

import (
	"context"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gentrius/internal/retry"
	"gentrius/internal/search"
)

// TestHTTPWorkerKilled runs the fleet protocol over real HTTP — httptest
// servers on real sockets, real wall-clock leases — and SIGKILLs one worker
// mid-shard (its server closes and its shard runs are cancelled without
// reporting). The victim's lease expires, the shard re-dispatches to the
// survivor from the last durable checkpoint, and the final counters are
// byte-equal to the uninterrupted serial run.
func TestHTTPWorkerKilled(t *testing.T) {
	// Seed 342 is a ~270k-tree stand (~90ms serial) — big enough that the
	// kill always lands mid-shard. The race detector slows the engine well
	// over an order of magnitude, so under -race the drill uses a ~5x
	// smaller scenario and a relaxed lease cadence to stay inside the
	// deadline while still dying mid-run.
	seed, n, minCol, pPresent := int64(342), 20, 7, 0.4
	leaseTTL, hbEvery := 150*time.Millisecond, 25*time.Millisecond
	if raceEnabled {
		seed, n, minCol, pPresent = 312, 18, 7, 0.45
		leaseTTL, hbEvery = 400*time.Millisecond, 60*time.Millisecond
	}
	rng := rand.New(rand.NewSource(seed))
	cons := canonicalize(t, randomScenario(rng, n, 4, minCol, pPresent))
	ref := serialRef(t, cons)
	if ref.Elapsed < 20*time.Millisecond {
		t.Fatalf("scenario too fast (%v) to kill a worker mid-shard", ref.Elapsed)
	}

	// Coordinator server first (workers dial it from the dispatch's
	// CoordURL); its handler is bound after the coordinator exists —
	// nothing calls in until the first dispatch goes out.
	var coordHandler atomic.Pointer[http.Handler]
	coordSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if h := coordHandler.Load(); h != nil {
			(*h).ServeHTTP(w, r)
			return
		}
		http.Error(w, "coordinator not ready", http.StatusServiceUnavailable)
	}))
	defer coordSrv.Close()

	dial := func(url string) CoordinatorClient {
		return NewHTTPClient(url, 5*time.Second)
	}
	// The victim is dead from the moment its first dispatch is accepted,
	// before the coordinator even reads the answer: nothing it sends after
	// that arrives. (Cancelling its runs is not enough to keep a result from
	// leaving: a count-only shard is done in a few milliseconds, and with
	// fewer cores than busy engines a cancellation can take as long to land.)
	var kill sync.Once
	killed := make(chan struct{})
	victim := NewWorker(WorkerConfig{Name: "victim", Threads: 1,
		Dial: func(url string) CoordinatorClient { return severedClient{dial(url), killed} }})
	survivor := NewWorker(WorkerConfig{Name: "survivor", Threads: 1, Dial: dial})

	victimMux := WorkerHandler(victim)
	victimSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		victimMux.ServeHTTP(w, r)
		kill.Do(func() { close(killed) })
	}))
	defer victimSrv.Close()
	survivorSrv := httptest.NewServer(WorkerHandler(survivor))
	defer survivorSrv.Close()

	coord := NewCoordinator(Config{
		Peers: []WorkerClient{
			NewHTTPClient(victimSrv.URL, 5*time.Second),
			NewHTTPClient(survivorSrv.URL, 5*time.Second),
		},
		CoordURL:       coordSrv.URL,
		Shards:         2,
		LeaseTTL:       leaseTTL,
		HeartbeatEvery: hbEvery,
		Retry:          retry.Policy{Attempts: 2, Base: 5 * time.Millisecond},
	})
	h := CoordinatorHandler(coord)
	coordHandler.Store(&h)

	// The rest of the SIGKILL: its server closes (no more dispatches land)
	// and its runs stop.
	go func() {
		<-killed
		victimSrv.Close()
		victim.Shutdown()
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := coord.Run(ctx, "httpkill", cons, RunOptions{InitialTree: -1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stop != search.StopExhausted {
		t.Fatalf("stop %v, want exhausted", res.Stop)
	}
	want := search.Counters{StandTrees: ref.StandTrees,
		IntermediateStates: ref.IntermediateStates, DeadEnds: ref.DeadEnds}
	if res.Counters != want {
		t.Fatalf("fleet counters %+v, serial %+v", res.Counters, want)
	}
	if res.LeaseExpiries == 0 {
		t.Fatal("killed worker never expired a lease")
	}
	survivor.Shutdown()
}

// severedClient is a killed worker's line to its coordinator: once cut is
// closed every call fails without reaching the network.
type severedClient struct {
	CoordinatorClient
	cut <-chan struct{}
}

func (c severedClient) dead() error {
	select {
	case <-c.cut:
		return errors.New("worker killed")
	default:
		return nil
	}
}

func (c severedClient) Heartbeat(ctx context.Context, req *HeartbeatRequest) (*HeartbeatResponse, error) {
	if err := c.dead(); err != nil {
		return nil, err
	}
	return c.CoordinatorClient.Heartbeat(ctx, req)
}

func (c severedClient) Result(ctx context.Context, req *ShardResult) (*ResultResponse, error) {
	if err := c.dead(); err != nil {
		return nil, err
	}
	return c.CoordinatorClient.Result(ctx, req)
}

// TestRPCBodyBounded: a fleet RPC body is read up to maxRPCBody and no
// further — an endless one is refused as a bad request without the handler
// running. (Every fleet RPC is served by the one serveJSON.)
func TestRPCBodyBounded(t *testing.T) {
	h := WorkerHandler(NewWorker(WorkerConfig{Name: "w", Threads: 1}))
	// A JSON string that never ends: the decoder wants all of it.
	body := io.MultiReader(strings.NewReader(`{"job_id":"`), &endless{limit: maxRPCBody + 1<<20})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/shards", body))
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "too large") {
		t.Fatalf("oversized body answered %d %q", rec.Code, rec.Body.String())
	}
}

// endless yields up to limit bytes of 'a' and then fails the test's premise
// by ending; the bounded reader must stop before that.
type endless struct{ limit, read int }

func (e *endless) Read(p []byte) (int, error) {
	if e.read >= e.limit {
		return 0, io.EOF
	}
	for i := range p {
		p[i] = 'a'
	}
	e.read += len(p)
	return len(p), nil
}
