package dist

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"gentrius"
	"gentrius/internal/faultinject"
	"gentrius/internal/obs"
	"gentrius/internal/retry"
	"gentrius/internal/search"
	"gentrius/internal/tree"
)

// WorkerConfig sizes one fleet worker (the shard-executing side of a
// gentriusd node).
type WorkerConfig struct {
	// Name identifies this worker in logs.
	Name string
	// Dial resolves a coordinator URL from a DispatchRequest into a client.
	// In-memory transports return the coordinator directly.
	Dial func(coordURL string) CoordinatorClient
	// Threads is the default per-shard thread count when the dispatch does
	// not specify one.
	Threads int
	// DataDir, when set, persists parked results to disk so they survive a
	// worker restart.
	DataDir string

	Clock   Clock
	Retry   retry.Policy
	Metrics *Metrics
	Trace   *obs.Recorder
	Logger  *slog.Logger
	Fault   *faultinject.Injector
}

// orphanAfter is how many CONSECUTIVE failed heartbeats (each already retried
// with backoff) make a worker consider itself orphaned: it stops
// heartbeating, finishes the shard, and parks the result for the next
// dispatch to adopt.
const orphanAfter = 3

// Worker executes dispatched shards: it resumes each shard's frontier
// checkpoint through the ordinary enumeration engine, heartbeats durable
// progress back to the coordinator, and honours epoch fencing.
type Worker struct {
	cfg WorkerConfig

	mu      sync.Mutex
	running map[shardKey]*shardRun
	parked  map[shardKey]*parkedResult
}

type shardKey struct {
	job   string
	shard int
}

type shardRun struct {
	epoch  int
	cancel context.CancelFunc
	done   chan struct{}
	fenced atomic.Bool
}

// parkedResult is a completed shard result held for adoption, tagged with
// the input fingerprint it answers.
type parkedResult struct {
	Fingerprint string       `json:"fingerprint"`
	Result      *ShardResult `json:"result"`
}

// NewWorker applies defaults and reloads any parked results from DataDir.
func NewWorker(cfg WorkerConfig) *Worker {
	cfg.Clock, cfg.Retry, cfg.Metrics, cfg.Logger = nodeDefaults(cfg.Clock, cfg.Retry, cfg.Metrics, cfg.Logger)
	w := &Worker{cfg: cfg, running: map[shardKey]*shardRun{}, parked: map[shardKey]*parkedResult{}}
	w.loadParked()
	return w
}

// ActiveShards reports how many shard runs are in flight (for drain logic
// and tests).
func (w *Worker) ActiveShards() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.running)
}

// HandleDispatch accepts (or refuses) a shard lease. A parked result for
// the same (job, shard, fingerprint) is returned for adoption instead of a
// fresh run; a dispatch carrying a newer epoch fences the current run away.
func (w *Worker) HandleDispatch(req *DispatchRequest) *DispatchResponse {
	if req.Proto != Proto {
		w.cfg.Logger.Warn("dispatch of another protocol version refused", "job", req.JobID,
			"shard", req.Shard, "got", req.Proto, "want", Proto)
		return &DispatchResponse{}
	}
	key := shardKey{req.JobID, req.Shard}
	w.mu.Lock()
	if pk := w.parked[key]; pk != nil && pk.Fingerprint == req.Fingerprint {
		delete(w.parked, key)
		w.mu.Unlock()
		if w.cfg.DataDir != "" {
			os.Remove(w.parkPath(key))
		}
		w.cfg.Logger.Info("returning parked result for adoption",
			"job", req.JobID, "shard", req.Shard, "epoch", pk.Result.Epoch)
		return &DispatchResponse{Parked: pk.Result}
	}
	if run := w.running[key]; run != nil {
		switch {
		case run.epoch == req.Epoch:
			w.mu.Unlock()
			return &DispatchResponse{Accepted: true} // duplicate dispatch: idempotent
		case run.epoch > req.Epoch:
			w.mu.Unlock()
			return &DispatchResponse{} // stale re-dispatch crossed a newer one
		default:
			// A newer epoch supersedes the run we still have going.
			run.fenced.Store(true)
			run.cancel()
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	run := &shardRun{epoch: req.Epoch, cancel: cancel, done: make(chan struct{})}
	w.running[key] = run
	w.mu.Unlock()
	w.cfg.Metrics.ShardsAccepted.Inc()
	w.cfg.Logger.Info("shard accepted", "job", req.JobID, "shard", req.Shard,
		"epoch", req.Epoch, "worker", w.cfg.Name)
	go w.runShard(ctx, run, key, req)
	return &DispatchResponse{Accepted: true}
}

// runShard executes one shard epoch end to end: resume the frontier
// checkpoint, heartbeat on the configured cadence (each heartbeat takes an
// on-demand snapshot through a CheckpointTrigger so progress is durable at
// exactly the heartbeat cut), and deliver — or park — the final result.
func (w *Worker) runShard(ctx context.Context, run *shardRun, key shardKey, req *DispatchRequest) {
	defer close(run.done)
	defer func() {
		w.mu.Lock()
		if w.running[key] == run {
			delete(w.running, key)
		}
		w.mu.Unlock()
	}()

	log := w.cfg.Logger.With("job", req.JobID, "shard", req.Shard, "epoch", req.Epoch)
	cons, err := tree.ReadLines(req.Trees)
	if err != nil {
		log.Error("shard constraints unparseable", "error", err.Error())
		return
	}
	if fp := search.Fingerprint(cons); fp != req.Fingerprint {
		log.Error("shard fingerprint mismatch", "got", fp, "want", req.Fingerprint)
		return
	}

	coord := w.cfg.Dial(req.CoordURL)
	trigger := gentrius.NewCheckpointTrigger()

	// Every event this shard emits — lifecycle markers here, task-lineage
	// spans inside the engine — carries the fleet trace context, so this
	// node's JSONL trace joins the coordinator's offline.
	st := newShardTracer(w.cfg.Trace, w.cfg.Name, req)
	st.Begin(checkpointMassPPM(req.Checkpoint))
	var sink *gentrius.ObsSink
	if st.rec != nil {
		sink = &gentrius.ObsSink{Trace: st.rec}
	}

	// The shard's trees, and the cut up to which the coordinator has them:
	// it moves only when a heartbeat carrying trees was answered, so trees
	// whose heartbeat — or its answer — was lost ride on the next one.
	shipped, onTrees := shipLog(req.CollectTrees)
	acked := 0

	threads := req.Threads
	if threads < 1 {
		threads = max(w.cfg.Threads, 1)
	}

	type outcome struct {
		res *gentrius.Result
		err error
	}
	resCh := make(chan outcome, 1)
	go func() {
		res, err := gentrius.EnumerateStandContext(ctx, cons, gentrius.Options{
			Threads: threads,
			// Shards run unlimited: job-level stopping rules belong to the
			// coordinator, which enforces them coarsely at merge points.
			MaxTrees:  -1,
			MaxStates: -1,
			MaxTime:   -1,
			OnTrees:   onTrees,
			Checkpoint: &gentrius.CheckpointPolicy{
				Resume:  req.Checkpoint,
				Trigger: trigger,
			},
			Obs:   sink,
			Fault: w.cfg.Fault,
		})
		resCh <- outcome{res, err}
	}()

	interval := time.Duration(req.HeartbeatMillis) * time.Millisecond
	if interval <= 0 {
		interval = DefaultHeartbeatEvery
	}

	var out outcome
	orphaned := false
	fails := 0
	var seq int64
	lastMass := -1.0

beat:
	for {
		select {
		case out = <-resCh:
			break beat
		case <-w.cfg.Clock.After(interval):
		}

		seq++
		hb := &HeartbeatRequest{Proto: Proto, JobID: req.JobID, Shard: req.Shard, Epoch: req.Epoch,
			TraceID: req.TraceID, Node: w.cfg.Name, Seq: seq}
		// Durable progress rides on every heartbeat: an on-demand snapshot
		// quiesces the run at this exact cut. If the run ended between the
		// clock tick and the request, the completion path takes over.
		if cp, err := trigger.Request(ctx); err == nil {
			hb.Checkpoint = cp
			if cp.Frontier != nil {
				hb.RemainingMass = cp.Frontier.RemainingMass()
			}
			lastMass = hb.RemainingMass
			hb.TreeDelta = shipped.Cut(acked, int(cp.Counters.StandTrees))
			st.Checkpoint(cp)
		} else {
			hb.RemainingMass = lastMass
		}

		// The send event fires for every attempt — including blackholed
		// ones: the worker did send, the network lost it, and the merged
		// timeline shows exactly that (a send with no matching recv).
		st.HeartbeatSend(seq, massPPM(hb.RemainingMass))
		if _, fire := w.cfg.Fault.Fire(faultinject.Heartbeat); fire {
			// Simulated network blackhole: the heartbeat silently vanishes.
			// The worker keeps computing; the coordinator's lease expires.
			continue
		}
		resp, err := rpc(ctx, w.cfg.Retry, w.cfg.Fault, "heartbeat", func() (*HeartbeatResponse, error) {
			return coord.Heartbeat(ctx, hb)
		})
		if err != nil {
			if ctx.Err() != nil {
				continue // fenced mid-heartbeat; completion path discards
			}
			fails++
			w.cfg.Metrics.HeartbeatFailures.Inc()
			log.Warn("heartbeat failed", "consecutive", fails, "error", err.Error())
			if fails >= orphanAfter {
				// Orphaned: the coordinator is unreachable. Finish the shard
				// anyway and park the result — re-dispatch will adopt it.
				orphaned = true
				log.Warn("coordinator unreachable: finishing shard orphaned")
				out = <-resCh
				break beat
			}
			continue
		}
		fails = 0
		if resp.Fenced {
			// A newer epoch owns the shard; stop and discard.
			run.fenced.Store(true)
			run.cancel()
			out = <-resCh
			break beat
		}
		acked += hb.TreesN
	}

	if run.fenced.Load() {
		st.End("fenced", search.Counters{})
		log.Info("shard run fenced away")
		return
	}
	if out.err != nil {
		// The run itself failed. Report nothing: the lease expires and the
		// coordinator re-dispatches from the last durable checkpoint.
		st.End("failed", search.Counters{})
		log.Error("shard run failed", "error", out.err.Error())
		return
	}
	if out.res.Stop == gentrius.StopCancelled {
		// Cancelled without being fenced (worker shutdown): nothing to send.
		st.End("cancelled", search.Counters{})
		return
	}

	result := newShardResult(req, w.cfg.Name, out.res, shipped, acked)
	// The end event precedes result delivery on purpose: a worker-side end
	// always happens-before the coordinator's shard-done for the same epoch,
	// which keeps the merged timeline's span nesting honest.
	if orphaned {
		st.End("parked", result.Counters)
		w.park(key, req.Fingerprint, result)
		return
	}
	st.End("done", result.Counters)
	resp, err := rpc(nil, w.cfg.Retry, w.cfg.Fault, "result", func() (*ResultResponse, error) {
		return coord.Result(context.Background(), result)
	})
	if err != nil {
		log.Warn("result delivery failed: parking", "error", err.Error())
		w.park(key, req.Fingerprint, result)
		return
	}
	if resp.Fenced {
		log.Info("result fenced by coordinator")
	}
}

// newShardResult is the outcome of the run that dispatch d started, with the
// trees of its log behind cut `at`.
func newShardResult(d *DispatchRequest, node string, res *gentrius.Result, trees *treeLog, at int) *ShardResult {
	return &ShardResult{
		Proto:   Proto,
		JobID:   d.JobID,
		Shard:   d.Shard,
		Epoch:   d.Epoch,
		TraceID: d.TraceID,
		Node:    node,
		Stop:    res.Stop,
		Counters: search.Counters{
			StandTrees:         res.StandTrees,
			IntermediateStates: res.IntermediateStates,
			DeadEnds:           res.DeadEnds,
		},
		TreeDelta: trees.Cut(at, int(res.StandTrees)),
	}
}

// park stores a finished result for adoption by a future dispatch, in
// memory and (when DataDir is set) on disk.
func (w *Worker) park(key shardKey, fingerprint string, res *ShardResult) {
	pk := &parkedResult{Fingerprint: fingerprint, Result: res}
	w.mu.Lock()
	w.parked[key] = pk
	w.mu.Unlock()
	w.cfg.Metrics.ResultsParked.Inc()
	w.cfg.Trace.EmitTagged(obs.EvShardParked, -1,
		[]obs.SField{obs.S("job", res.JobID)},
		obs.F("shard", int64(res.Shard)), obs.F("epoch", int64(res.Epoch)))
	w.cfg.Logger.Info("shard result parked", "job", res.JobID,
		"shard", res.Shard, "epoch", res.Epoch, "trees", res.Counters.StandTrees)
	if w.cfg.DataDir == "" {
		return
	}
	data, err := json.Marshal(pk)
	if err == nil {
		err = os.WriteFile(w.parkPath(key), data, 0o644)
	}
	if err != nil {
		w.cfg.Logger.Warn("parked result not persisted", "error", err.Error())
	}
}

// parkPath names the on-disk parked file for a shard. The job id is hashed
// so arbitrary ids cannot escape the directory.
func (w *Worker) parkPath(key shardKey) string {
	h := fnv.New64a()
	h.Write([]byte(key.job))
	return filepath.Join(w.cfg.DataDir, fmt.Sprintf("parked-%016x-%d.json", h.Sum64(), key.shard))
}

// loadParked restores parked results persisted by a previous process.
func (w *Worker) loadParked() {
	if w.cfg.DataDir == "" {
		return
	}
	paths, _ := filepath.Glob(filepath.Join(w.cfg.DataDir, "parked-*.json"))
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		var pk parkedResult
		if json.Unmarshal(data, &pk) != nil || pk.Result == nil || pk.Result.Proto != Proto {
			w.cfg.Logger.Warn("ignoring parked result: corrupt, or of another protocol version", "path", p)
			continue
		}
		w.parked[shardKey{pk.Result.JobID, pk.Result.Shard}] = &pk
		w.cfg.Logger.Info("reloaded parked result", "job", pk.Result.JobID,
			"shard", pk.Result.Shard, "epoch", pk.Result.Epoch)
	}
}

// Shutdown cancels every running shard (used by daemon drain; runs notice
// via their contexts and exit without reporting).
func (w *Worker) Shutdown() {
	w.mu.Lock()
	runs := make([]*shardRun, 0, len(w.running))
	for _, r := range w.running {
		r.cancel()
		runs = append(runs, r)
	}
	w.mu.Unlock()
	for _, r := range runs {
		<-r.done
	}
}
