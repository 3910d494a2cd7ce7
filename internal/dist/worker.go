package dist

import (
	"context"
	"fmt"
	"log/slog"
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

	Clock   Clock
	Retry   retry.Policy
	Metrics *Metrics
	Trace   *obs.Recorder
	Logger  *slog.Logger
	Fault   *faultinject.Injector
}

// orphanAfter is how many CONSECUTIVE failed heartbeats (each already retried
// with backoff) make a worker consider itself orphaned: it cancels the run and
// sends nothing. The lease expires, and the shard resumes from the last
// checkpoint the coordinator accepted, as any lost shard does.
const orphanAfter = 3

// Worker executes dispatched shards: it resumes each shard's frontier
// checkpoint through the ordinary enumeration engine, heartbeats durable
// progress back to the coordinator, and honours epoch fencing.
type Worker struct {
	cfg WorkerConfig

	mu      sync.Mutex
	running map[shardKey]*shardRun
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

// NewWorker applies defaults.
func NewWorker(cfg WorkerConfig) *Worker {
	cfg.Clock, cfg.Retry, cfg.Metrics, cfg.Logger = nodeDefaults(cfg.Clock, cfg.Retry, cfg.Metrics, cfg.Logger)
	return &Worker{cfg: cfg, running: map[shardKey]*shardRun{}}
}

// ActiveShards reports how many shard runs are in flight (for drain logic
// and tests).
func (w *Worker) ActiveShards() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.running)
}

// HandleDispatch accepts (or refuses) a shard lease; a dispatch carrying a
// newer epoch fences the current run away.
func (w *Worker) HandleDispatch(req *DispatchRequest) *DispatchResponse {
	if req.Proto != Proto {
		w.cfg.Logger.Warn("dispatch of another protocol version refused", "job", req.JobID,
			"shard", req.Shard, "got", req.Proto, "want", Proto)
		return &DispatchResponse{}
	}
	key := shardKey{req.JobID, req.Shard}
	w.mu.Lock()
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
// exactly the heartbeat cut), and deliver the final result — or the run's
// failure, which fails the job.
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
	coord := w.cfg.Dial(req.CoordURL)
	cons, err := tree.ReadLines(req.Trees)
	if err != nil {
		err = fmt.Errorf("constraints unparseable: %w", err)
	} else if fp := search.Fingerprint(cons); fp != req.Fingerprint {
		err = fmt.Errorf("fingerprint %s, dispatch says %s", fp, req.Fingerprint)
	}
	if err != nil {
		log.Error("shard input refused", "error", err.Error())
		w.deliver(coord, failedResult(req, w.cfg.Name, err), log)
		return
	}

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
	var shipped *treeLog
	var onTrees func(block []byte, n int) // nil: nothing is rendered
	if req.CollectTrees {
		shipped = new(treeLog)
		onTrees = shipped.Append
	}
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
				// Orphaned: the coordinator is unreachable. Stop; the lease
				// expires and the shard resumes from its last accepted cut.
				log.Warn("coordinator unreachable: shard run cancelled")
				run.cancel()
				<-resCh
				st.End("orphaned", search.Counters{})
				return
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
		// The run itself failed: the job fails with it, once. A resume from
		// the last checkpoint would meet the same failure again.
		st.End("failed", search.Counters{})
		log.Error("shard run failed", "error", out.err.Error())
		w.deliver(coord, failedResult(req, w.cfg.Name, out.err), log)
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
	st.End("done", result.Counters)
	w.deliver(coord, result, log)
}

// deliver sends a shard's result under the retry policy. One that cannot be
// delivered is dropped: the lease expires and the shard resumes from its
// last accepted checkpoint.
func (w *Worker) deliver(coord CoordinatorClient, res *ShardResult, log *slog.Logger) {
	resp, err := rpc(nil, w.cfg.Retry, w.cfg.Fault, "result", func() (*ResultResponse, error) {
		return coord.Result(context.Background(), res)
	})
	switch {
	case err != nil:
		log.Warn("result delivery failed: dropped", "error", err.Error())
	case resp.Fenced:
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

// failedResult reports that the run dispatch d started failed with err: no
// counters, no trees.
func failedResult(d *DispatchRequest, node string, err error) *ShardResult {
	return &ShardResult{Proto: Proto, JobID: d.JobID, Shard: d.Shard, Epoch: d.Epoch,
		TraceID: d.TraceID, Node: node, Stop: search.StopFailed, Err: err.Error()}
}

// Shutdown cancels every running shard (used by daemon drain; runs notice
// via their contexts and exit without reporting) and waits for them to end.
func (w *Worker) Shutdown() {
	for _, r := range w.cancel(func(shardKey) bool { return true }) {
		<-r.done
	}
}

// stopJob cancels the job's runs as Shutdown does, without waiting for them.
func (w *Worker) stopJob(job string) {
	w.cancel(func(k shardKey) bool { return k.job == job })
}

// cancel cancels the runs whose keys match and forgets them, so that a
// dispatch of the same shard starts a new run, and returns them.
func (w *Worker) cancel(match func(shardKey) bool) []*shardRun {
	w.mu.Lock()
	defer w.mu.Unlock()
	var runs []*shardRun
	for k, r := range w.running {
		if match(k) {
			r.cancel()
			delete(w.running, k)
			runs = append(runs, r)
		}
	}
	return runs
}
