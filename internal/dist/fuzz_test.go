package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"gentrius"
	"gentrius/internal/retry"
	"gentrius/internal/tree"
)

// fuzzFleet is a coordinator with one scripted job: two collecting shards,
// leased at epoch 1 to two hand-played peers, nothing merged yet.
type fuzzFleet struct {
	clock  *VirtualClock
	coord  *Coordinator
	job    *fleetJob
	d      [2]*DispatchRequest // by shard
	cancel context.CancelFunc
	done   chan struct{}
	err    error // Run's, once done is closed

	mu        sync.Mutex
	delivered int // trees handed to OnTrees
}

func newFuzzFleet(t testing.TB, cons []*tree.Tree) *fuzzFleet {
	t.Helper()
	f := &fuzzFleet{clock: NewVirtualClock(time.Unix(0, 0)), done: make(chan struct{})}
	peerA, peerB := newScriptedPeer("a"), newScriptedPeer("b")
	f.coord = NewCoordinator(Config{Peers: []WorkerClient{peerA, peerB}, Shards: 2,
		LeaseTTL: 100 * time.Millisecond, Clock: f.clock, Retry: retry.Policy{Attempts: 1}})
	ctx, cancel := context.WithCancel(context.Background())
	f.cancel = cancel
	go func() {
		defer close(f.done)
		_, f.err = f.coord.Run(ctx, "fuzz", cons, RunOptions{InitialTree: -1, OnTrees: func(block []byte, n int) {
			if bytes.Count(block, []byte("\n")) != n || (n > 0 && block[len(block)-1] != '\n') {
				t.Errorf("delivered a block of %d bytes that is not %d whole lines", len(block), n)
			}
			f.mu.Lock()
			f.delivered += n
			f.mu.Unlock()
		}})
	}()
	for _, p := range []*scriptedPeer{peerA, peerB} {
		select {
		case d := <-p.dispatches:
			f.d[d.Shard] = d
		case <-time.After(10 * time.Second):
			t.Fatal("no initial dispatch")
		}
	}
	f.coord.mu.Lock()
	f.job = f.coord.jobs["fuzz"]
	f.coord.mu.Unlock()
	return f
}

// close cancels the job and returns Run's error.
func (f *fuzzFleet) close() error {
	f.cancel()
	<-f.done
	return f.err
}

// partialOf is what a worker holding dispatch d reports after ten more
// states: the heartbeat of a run stopped there.
func partialOf(t testing.TB, d *DispatchRequest) *HeartbeatRequest {
	t.Helper()
	cons, err := tree.ReadLines(d.Trees)
	if err != nil {
		t.Fatal(err)
	}
	p, err := gentrius.EnumerateStand(cons, gentrius.Options{
		Threads: 1, MaxTrees: -1, MaxTime: -1, MaxStates: 10, CollectTrees: true,
		Checkpoint: &gentrius.CheckpointPolicy{Resume: d.Checkpoint, OnStop: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.Checkpoint == nil {
		return nil
	}
	hb := &HeartbeatRequest{Proto: Proto, JobID: d.JobID, Shard: d.Shard, Epoch: d.Epoch, Seq: 1,
		RemainingMass: p.Checkpoint.Frontier.RemainingMass(), Checkpoint: p.Checkpoint}
	hb.Trees, hb.TreesN = blockOf(p.Trees)
	return hb
}

// region is where epoch e of shard s may be written: from its base up to
// what it has shipped.
func region(s *shardState, epoch int) (base, held int, known bool) {
	b, known := s.base[epoch]
	held = s.log.Trees()
	if next, ok := s.base[epoch+1]; ok {
		held = next.trees
	}
	return b.trees, held, known
}

// logText is everything a shard's log holds, joined ("" for a nil log).
func logText(l *treeLog) string { return strings.Join(l.Cut(0, l.Trees()).Trees, "") }

// FuzzFleetMessages sends arbitrary bytes through the fleet's HTTP handlers
// into a coordinator with one scripted job (and, for dispatches, a worker of
// that coordinator). Nothing panics; a heartbeat or a result that is taken
// was of a known epoch and put its trees inside what that epoch had shipped
// — so one whose TreesAt is beyond it is refused — and one that is refused
// leaves the shard's log as it was; every log stays well-formed, through a
// lease expiry too; whatever reaches the caller is whole lines. A failed
// result that is taken fails the job, and moves no shard's log; the job fails
// no other way, unless a dispatch started a run on the worker.
func FuzzFleetMessages(f *testing.F) {
	cons := canonicalize(f, randomScenario(rand.New(rand.NewSource(101)), 15, 3, 6, 0.6))

	// Seeds: the messages of TestFleetProtocolScripted, and some that must
	// be refused.
	seedFleet := newFuzzFleet(f, cons)
	for _, d := range seedFleet.d {
		add := func(kind uint8, msg any) {
			js, err := json.Marshal(msg)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(kind, js)
		}
		add(2, d)
		add(1, runShardToEnd(f, d))
		if hb := partialOf(f, d); hb != nil {
			add(0, hb)
			stale := *hb
			stale.TreesAt = hb.TreesN + 1 // beyond what the coordinator holds
			add(0, &stale)
			late := *runShardToEnd(f, d)
			late.TreesAt, late.TreesN, late.Trees = hb.TreesN, 0, nil
			add(1, &late)
		}
	}
	if err := seedFleet.close(); err != nil {
		f.Fatal(err)
	}
	f.Add(uint8(0), []byte(`{"proto":3,"job_id":"fuzz","shard":0,"epoch":1,"checkpoint":{}}`))
	f.Add(uint8(1), []byte(`{"proto":3,"job_id":"fuzz","shard":1,"epoch":1,"trees_at":-1,"trees_n":1,"trees":["x;\n"]}`))
	f.Add(uint8(1), []byte(`{"proto":3,"job_id":"fuzz","shard":0,"epoch":1}`))
	// Failed results: of an unknown epoch (refused), of an older protocol
	// (refused), of a live shard's epoch (fails the job; counters ignored).
	f.Add(uint8(1), []byte(`{"proto":3,"job_id":"fuzz","shard":0,"epoch":2,"node":"a","err":"boom"}`))
	f.Add(uint8(1), []byte(`{"proto":2,"job_id":"fuzz","shard":0,"epoch":1,"node":"a","err":"boom"}`))
	f.Add(uint8(1), []byte(`{"proto":3,"job_id":"fuzz","shard":0,"epoch":1,"node":"a","err":"boom","counters":{"stand_trees":3}}`))

	f.Fuzz(func(t *testing.T, kind uint8, body []byte) {
		fl := newFuzzFleet(t, cons)
		defer fl.close()
		// Shard 0 has shipped something, so that there are cuts to aim at.
		if hb := partialOf(t, fl.d[0]); hb != nil {
			if resp := fl.coord.HandleHeartbeat(hb); resp.Fenced {
				t.Fatal("the scripted heartbeat was fenced")
			}
		}
		var coordClient CoordinatorClient = &LocalCoordinatorClient{C: fl.coord}
		w := NewWorker(WorkerConfig{Name: "fuzzed", Clock: fl.clock, Retry: retry.Policy{Attempts: 1},
			Dial: func(string) CoordinatorClient { return coordClient }})
		defer w.Shutdown()

		// What the message says, decoded as the handler will decode it.
		var at TreeDelta
		var shard, epoch int
		var counted int64
		var decoded, failed bool
		var failure string
		switch kind % 3 {
		case 0:
			var hb HeartbeatRequest
			if decoded = json.NewDecoder(bytes.NewReader(body)).Decode(&hb) == nil && hb.JobID == "fuzz" && hb.Checkpoint != nil; decoded {
				at, shard, epoch, counted = hb.TreeDelta, hb.Shard, hb.Epoch, hb.Checkpoint.Counters.StandTrees
			}
		case 1:
			var r ShardResult
			if decoded = json.NewDecoder(bytes.NewReader(body)).Decode(&r) == nil && r.JobID == "fuzz"; decoded {
				at, shard, epoch, counted = r.TreeDelta, r.Shard, r.Epoch, r.Counters.StandTrees
				failed, failure = r.Err != "", r.Err
			}
		}
		decoded = decoded && shard >= 0 && shard < len(fl.job.shards)
		var base, held int
		var known bool
		var before []string // every shard's log
		if decoded {
			fl.job.mu.Lock()
			base, held, known = region(fl.job.shards[shard], epoch)
			for _, s := range fl.job.shards {
				before = append(before, logText(s.log))
			}
			fl.job.mu.Unlock()
		}

		path := [...]string{"/v1/shards/heartbeat", "/v1/shards/result", "/v1/shards"}[kind%3]
		var h http.Handler = CoordinatorHandler(fl.coord)
		if kind%3 == 2 {
			h = WorkerHandler(w)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))

		var failedTaken bool
		if decoded && rec.Code == http.StatusOK {
			taken := !strings.Contains(rec.Body.String(), `"fenced":true`)
			failedTaken = taken && failed
			want := base + at.TreesAt + at.TreesN
			fl.job.mu.Lock()
			s := fl.job.shards[shard]
			switch {
			case taken && (!known || !failed && (at.TreesAt < 0 || base+at.TreesAt > held || int64(at.TreesAt+at.TreesN) != counted)):
				t.Errorf("taken: epoch %d (known: %v) of shard %d put %d trees at %d+%d, the epoch held up to %d, the counter says %d",
					epoch, known, shard, at.TreesN, base, at.TreesAt, held, counted)
			case taken && kind%3 == 0 && s.log.Trees() != want:
				t.Errorf("taken heartbeat left %d trees in the log, want %d+%d+%d", s.log.Trees(), base, at.TreesAt, at.TreesN)
			case !taken && s.log != nil && logText(s.log) != before[shard]:
				t.Errorf("a refused message changed the log of shard %d", shard)
			}
			for i, sh := range fl.job.shards {
				if failedTaken && logText(sh.log) != before[i] {
					t.Errorf("a failed result changed the log of shard %d", i)
				}
			}
			fl.job.mu.Unlock()
			if taken && !failed && kind%3 == 1 {
				// The merged shard reaches the caller, whole.
				got := func() int {
					fl.mu.Lock()
					defer fl.mu.Unlock()
					return fl.delivered
				}
				waitFor(t, "the merged shard's delivery", func() bool { return got() >= want })
				if got() != want {
					t.Errorf("merged shard delivered %d trees, want %d+%d+%d", got(), base, at.TreesAt, at.TreesN)
				}
			}
		}
		if kind%3 == 2 {
			// A dispatch that started a run of this job: give it the time a
			// shard of this stand needs, then the Shutdown stops what is left.
			for i := 0; i < 200 && w.ActiveShards() > 0; i++ {
				time.Sleep(time.Millisecond)
			}
		}

		// Leases run out: whatever the message left as the latest checkpoint
		// becomes the next dispatch.
		for i := 0; i < 3; i++ {
			fl.clock.Advance(60 * time.Millisecond)
			time.Sleep(200 * time.Microsecond)
		}
		fl.job.mu.Lock()
		for _, s := range fl.job.shards {
			if s.log != nil {
				checkLog(t, s.log)
			}
		}
		fl.job.mu.Unlock()
		err := fl.close()
		switch {
		case failedTaken && (err == nil || !strings.Contains(err.Error(), failure)):
			t.Errorf("a taken failed result (%q) left the job to end with %v", failure, err)
		case !failedTaken && kind%3 != 2 && err != nil:
			t.Errorf("the job failed: %v", err)
		}
	})
}
