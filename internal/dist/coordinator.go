package dist

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"time"

	"gentrius/internal/faultinject"
	"gentrius/internal/obs"
	"gentrius/internal/retry"
	"gentrius/internal/search"
	"gentrius/internal/tree"
)

// Config sizes a Coordinator.
type Config struct {
	// Peers are the worker endpoints shards are dispatched to. While none of
	// them is alive — an empty fleet, or every peer dead — shards go to the
	// coordinator's own in-process worker, "local", under the same leases.
	Peers []WorkerClient
	// CoordURL is this coordinator's advertised URL, handed to workers so
	// they know where to heartbeat. In-memory transports ignore it.
	CoordURL string
	// Shards is the target shard count per job (default 2× the peer
	// count, min 2 — coarse shards amortize dispatch, a small multiple
	// evens out unbalanced branching).
	Shards int
	// LeaseTTL is how long a shard lease survives without a heartbeat.
	LeaseTTL time.Duration
	// HeartbeatEvery is the cadence workers are asked to heartbeat (and
	// checkpoint) at. Must be comfortably under LeaseTTL.
	HeartbeatEvery time.Duration
	// Threads is the per-shard worker thread count (0 = 1).
	Threads int

	Clock   Clock
	Retry   retry.Policy
	Metrics *Metrics
	Trace   *obs.Recorder
	Logger  *slog.Logger
	Fault   *faultinject.Injector
}

// Coordinator shards jobs across the fleet and owns the lease/epoch
// bookkeeping. One coordinator serves any number of concurrent jobs; the
// HTTP layer routes /v1/shards/heartbeat and /v1/shards/result to
// HandleHeartbeat/HandleResult.
type Coordinator struct {
	cfg Config
	// peers are cfg.Peers and, last, at index local, the coordinator's own
	// worker: a peer like the others, picked only while no other is alive.
	peers  []WorkerClient
	local  int
	worker *Worker

	mu     sync.Mutex
	jobs   map[string]*fleetJob
	alive  []bool      // per peer; the local one never dies
	live   int         // how many of cfg.Peers are alive
	lastHB []time.Time // last accepted heartbeat per peer (zero: never)
}

// NewCoordinator validates and applies defaults.
func NewCoordinator(cfg Config) *Coordinator {
	if cfg.Shards <= 0 {
		cfg.Shards = max(2*len(cfg.Peers), 2)
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = DefaultLeaseTTL
	}
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = DefaultHeartbeatEvery
	}
	cfg.Clock, cfg.Retry, cfg.Metrics, cfg.Logger = nodeDefaults(cfg.Clock, cfg.Retry, cfg.Metrics, cfg.Logger)
	c := &Coordinator{cfg: cfg, jobs: map[string]*fleetJob{}, live: len(cfg.Peers), local: len(cfg.Peers)}
	c.worker = NewWorker(WorkerConfig{Name: "local", Threads: cfg.Threads,
		Dial:  func(string) CoordinatorClient { return &LocalCoordinatorClient{C: c} },
		Clock: cfg.Clock, Retry: cfg.Retry, Metrics: cfg.Metrics, Trace: cfg.Trace, Logger: cfg.Logger, Fault: cfg.Fault})
	c.peers = append(slices.Clip(cfg.Peers), &LocalWorkerClient{WorkerName: "local", W: c.worker})
	c.alive, c.lastHB = make([]bool, len(c.peers)), make([]time.Time, len(c.peers))
	for i := range c.alive {
		c.alive[i] = true
	}
	c.cfg.Metrics.WorkersLive.Set(int64(c.live))
	return c
}

// nodeDefaults fills in what a coordinator and a worker were not given: the
// wall clock, backoff that sleeps on the node's clock, instruments and a
// logger that discard.
func nodeDefaults(clock Clock, pol retry.Policy, m *Metrics, log *slog.Logger) (Clock, retry.Policy, *Metrics, *slog.Logger) {
	if clock == nil {
		clock = RealClock{}
	}
	if pol.Sleep == nil {
		pol.Sleep = clock.Sleep
	}
	if m == nil {
		m = &Metrics{} // zero value discards every update
	}
	if log == nil {
		log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return clock, pol, m, log
}

// RunOptions is search.Options, the one options type of every driver, the
// fleet's Run included. The name stays only because the benchmark, whose
// sources do not change with the library, still spells it.
type RunOptions = search.Options

// Result is a fleet run's merged outcome: the search.Result every driver
// returns, and the fleet's own statistics. Counters is Prefix, which the
// coordinator counted, plus the merged shards; Elapsed is read on the
// coordinator's Clock from the start of Run. The engines that did the work
// ran in the workers, so Steps, Work, PerWorker, TasksStolen and Flushes stay
// zero, and Checkpoint is nil.
type Result struct {
	search.Result
	// TraceID is the fleet-run trace id every node stamped on this job's
	// trace events (deterministic: fleetTraceID of job id + fingerprint).
	TraceID       string
	LeaseExpiries int64 // each re-dispatches its shard from its last durable checkpoint
	LocalShards   int64 // epochs leased to the coordinator's own worker
}

// Shard lifecycle.
const (
	shardPending = iota // waiting for a peer
	shardLeased         // dispatched, lease ticking
	shardDone           // result merged
)

type shardState struct {
	idx      int
	status   int
	epoch    int
	peer     int // index in Coordinator.peers, while leased
	deadline time.Time

	// dispatchCkpt is the current epoch's resume point (counters zeroed).
	dispatchCkpt *search.Checkpoint
	// latest is the newest CURRENT-epoch checkpoint from a heartbeat; log
	// ends at its cut.
	latest      *search.Checkpoint
	latestMass  float64
	initialMass float64 // estimator mass at shard creation (fraction base)

	// base is what was already accounted when each epoch was dispatched:
	// counters, and trees of log. log holds the shard's trees once (nil for
	// a job that ships none): epoch e's are the first base[e].trees, from
	// the epochs before, and behind them what e has shipped — up to
	// base[e+1].trees once it is superseded; its successor writes from there.
	base map[int]epochBase
	log  *treeLog
}

type epochBase struct {
	counters search.Counters
	trees    int
}

// takeTrees puts the trees an epoch shipped into the shard's log, behind the
// cut they name. It refuses trees that do not end at the counter they arrived
// with, a cut beyond what the epoch has shipped, and what treeLog.Put refuses.
func (s *shardState) takeTrees(epoch int, d TreeDelta, counted int64) bool {
	if s.log == nil {
		return d.TreesAt == 0 && d.TreesN == 0 && len(d.Trees) == 0
	}
	held := s.log.Trees()
	if next, superseded := s.base[epoch+1]; superseded {
		held = next.trees
	}
	from := s.base[epoch].trees + d.TreesAt
	return d.TreesAt >= 0 && from <= held && int64(d.TreesAt)+int64(d.TreesN) == counted &&
		s.log.Put(from, d.Trees, d.TreesN)
}

type fleetJob struct {
	id          string
	constraints []*tree.Tree
	newicks     []string
	fingerprint string
	limits      search.Limits // normalized
	start       time.Time     // on the coordinator's Clock, for Limits.MaxTime and Elapsed
	// rec and log are the job-scoped recorder (fixed {trace, job} tags) and
	// slog handle (trace and job attrs) every coordinator-side emission for
	// this job goes through.
	rec *obs.Recorder
	log *slog.Logger

	// sink hands merged blocks to the caller (nil: the job only counts), and
	// trees are what it collects; both are the control loop's alone.
	sink  func(block string, n int)
	trees []string

	mu       sync.Mutex
	shards   []*shardState
	totals   search.Counters
	merged   []string // blocks of shards merged, not yet handed to the caller
	stopping bool
	stop     search.StopReason
	failErr  error
	wake     chan struct{}

	stats Result
}

// checkpoint is the resume point a dispatch carries: a frontier of the job,
// counters zeroed.
func (j *fleetJob) checkpoint(fr *search.Frontier) *search.Checkpoint {
	return search.NewFrontierCheckpoint(j.constraints, j.stats.InitialIndex,
		search.OrderMinBranches, search.Counters{}, fr)
}

// deliver hands blocks to the job's sink. A sink that panics fails the job
// with a *search.PanicError, as it fails search.Run and the pool.
func (j *fleetJob) deliver(blocks ...string) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &search.PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	for _, b := range blocks {
		j.sink(b, strings.Count(b, "\n"))
	}
	return nil
}

func (j *fleetJob) wakeUp() {
	select {
	case j.wake <- struct{}{}:
	default:
	}
}

// Run executes one distributed enumeration and blocks until it completes,
// fails, or ctx, the run's one cancel, ends (StopCancelled). jobID must be
// unique per coordinator.
//
// Run honours CollectTrees, OnTree, OnTrees, InitialTree and Limits as
// search.Run does, and refuses every other field of opt. The sink gets each
// shard's trees once, when the shard merges (not streaming: which epoch's
// trees count is settled at the merge, after fencing), in the blocks the
// workers' engines rendered, by serialized calls. Shards run unlimited and the
// merged totals are checked at each merge, so a tree or state limit
// overshoots by up to the in-flight shards' work.
func (c *Coordinator) Run(ctx context.Context, jobID string, constraints []*tree.Tree, opt search.Options) (*Result, error) {
	start := c.cfg.Clock.Now()
	// However the run ends, refused included, unblock any trigger requester.
	defer opt.Checkpoint.Trigger.Finish()
	switch ck := opt.Checkpoint; {
	case len(constraints) == 0:
		return nil, errors.New("dist: no constraint trees")
	case opt.Threads > 1:
		return nil, fmt.Errorf("dist: a shard runs at its peer's Config.Threads, not %d", opt.Threads)
	case opt.Heuristic != search.OrderMinBranches || opt.DisableDynamicOrder || opt.ShuffleSeed != 0:
		return nil, errors.New("dist: the dispatched checkpoints record the min-branches order")
	case opt.CheckEvery != 0:
		return nil, errors.New("dist: a fleet checks its limits at each merge, not every CheckEvery")
	case opt.Ctx != nil:
		return nil, errors.New("dist: Run's ctx is the run's cancel, not Options.Ctx")
	case ck.Interval != 0 || ck.OnStop || ck.Resume != nil || ck.Sink != nil || ck.Trigger != nil:
		return nil, errors.New("dist: a fleet run takes no checkpoint settings: the coordinator owns its frontiers")
	case opt.Policy != search.Policy{} || opt.Obs != nil || opt.Fault != nil:
		return nil, errors.New("dist: a fleet's trace, metrics and fault sites are its Config's")
	}

	// Canonicalize: serialize the input and re-parse the canonical text,
	// so the coordinator's taxon/edge ids match what workers — who parse
	// the same strings — will assign. (The reader numbers taxa by first
	// appearance; parsing different text would silently shift every
	// PathStep in the dispatched checkpoints.)
	newicks := make([]string, len(constraints))
	for i, t := range constraints {
		newicks[i] = t.Newick()
	}
	cons, err := tree.ReadLines(newicks)
	if err != nil {
		return nil, fmt.Errorf("dist: canonicalizing constraints: %w", err)
	}

	// Shared set-up: the deterministic prefix is walked once, counted once,
	// by the coordinator; the root frontier is one seed task per
	// initial-split branch (weight 1/B), dealt into shards below.
	su, err := search.Start(cons, opt.InitialTree, search.OrderMinBranches, nil, nil, 0)
	if err != nil {
		return nil, err
	}
	job := &fleetJob{
		id:          jobID,
		constraints: cons,
		newicks:     newicks,
		fingerprint: search.Fingerprint(cons),
		limits:      opt.Limits.Normalize(),
		start:       start,
		totals:      su.Counters,
		wake:        make(chan struct{}, 1),
		stop:        search.StopExhausted,
		stats:       Result{Result: *su.Result()},
	}
	job.sink = search.TreeSink[string](opt.CollectTrees, &job.trees, opt.OnTree, opt.OnTrees)
	var lone string // the stand's one tree, when the prefix found it and a sink takes it
	if len(su.Frontier.Tasks) == 0 && job.sink != nil {
		lone = su.Tree()
	}
	su.Release() // the shards run elsewhere: only the counters and frontier are read
	if len(su.Frontier.Tasks) == 0 {
		// An empty stand, or a prefix that closed the whole space.
		if lone != "" {
			if err := job.deliver(lone + "\n"); err != nil {
				return nil, err
			}
		}
		res := job.stats
		res.Trees, res.Elapsed = job.trees, c.cfg.Clock.Now().Sub(start)
		return &res, nil
	}
	traceID := fleetTraceID(jobID, job.fingerprint)
	job.rec = c.cfg.Trace.With([]obs.SField{obs.S("trace", traceID), obs.S("job", jobID)})
	job.log = c.cfg.Logger.With("trace", traceID, "job", jobID)
	job.stats.TraceID = traceID

	// Shard i of k holds root tasks i, i+k, …: each weighs 1/B, so the deal
	// splits the estimator mass as evenly as whole tasks can.
	k := min(c.cfg.Shards, len(su.Frontier.Tasks))
	var totalMass float64
	for i := range k {
		fr := &search.Frontier{Prefix: su.Frontier.Prefix}
		for t := i; t < len(su.Frontier.Tasks); t += k {
			fr.Tasks = append(fr.Tasks, su.Frontier.Tasks[t])
		}
		s := &shardState{
			idx:          i,
			status:       shardPending,
			epoch:        1,
			dispatchCkpt: job.checkpoint(fr),
			base:         map[int]epochBase{1: {}},
		}
		if job.sink != nil {
			s.log = new(treeLog)
		}
		s.latestMass = fr.RemainingMass()
		s.initialMass = s.latestMass
		totalMass += s.latestMass
		job.shards = append(job.shards, s)
	}
	job.rec.Emit(obs.EvFleetRun, -1,
		obs.F("shards", int64(len(job.shards))), obs.F("mass_ppm", massPPM(totalMass)))
	job.log.Info("fleet run started", "shards", len(job.shards), "peers", len(c.cfg.Peers))

	c.mu.Lock()
	if _, dup := c.jobs[jobID]; dup {
		c.mu.Unlock()
		return nil, fmt.Errorf("dist: job %q already running", jobID)
	}
	c.jobs[jobID] = job
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.jobs, jobID)
		c.mu.Unlock()
	}()

	// However Run ends, dispatch retries stop, and so do the job's runs on
	// the coordinator's own worker.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	defer c.worker.stopJob(jobID)
	return c.controlLoop(ctx, job)
}

// controlLoop drives one job: dispatching pending shards, expiring leases,
// delivering merged trees, and ending the job once it is stopping — every
// shard merged, a limit passed, the job cancelled or a shard failed.
func (c *Coordinator) controlLoop(ctx context.Context, job *fleetJob) (*Result, error) {
	clk := c.cfg.Clock
	for {
		now := clk.Now()
		job.mu.Lock()
		// A cancelled job stops dispatching; its leased shards are fenced at
		// their next heartbeat, and what has been merged is still delivered.
		if ctx.Err() != nil && !job.stopping {
			job.stopping, job.stop = true, search.StopCancelled
		}
		c.limitLocked(job, now)
		// Lease expiry: a leased shard past its deadline re-enters the
		// pending pool at the next epoch, resuming from its last durable
		// checkpoint (resume-not-replay).
		for _, s := range job.shards {
			if s.status == shardLeased && now.After(s.deadline) {
				c.cfg.Metrics.LeaseExpiries.Inc()
				job.stats.LeaseExpiries++
				job.rec.EmitTagged(obs.EvLeaseExpire, -1,
					[]obs.SField{obs.S("peer", c.peerName(s.peer))},
					obs.F("shard", int64(s.idx)), obs.F("epoch", int64(s.epoch)))
				job.log.Warn("shard lease expired", "shard", s.idx, "epoch", s.epoch, "peer", c.peerName(s.peer))
				// The peer is NOT marked dead here: a missed heartbeat may
				// mean only that its return path failed. A truly dead peer
				// is detected when the next dispatch RPC to it fails.
				c.advanceEpoch(job, s)
			}
		}

		if !job.stopping {
			for _, s := range job.shards {
				if s.status != shardPending {
					continue
				}
				cause := "initial"
				if s.epoch > 1 {
					cause = "redispatch"
				}
				c.leaseTo(ctx, job, s, c.pickPeer(job), cause)
			}
		}

		// Earliest lease deadline, or the time limit, the loop must wake for.
		var next time.Time
		if limit := job.limits.MaxTime; limit > 0 {
			next = job.start.Add(limit)
		}
		for _, s := range job.shards {
			if s.status == shardLeased && (next.IsZero() || s.deadline.Before(next)) {
				next = s.deadline
			}
		}
		// Merged shards' trees go to the caller outside the lock (exactly
		// once: the merge already resolved epochs), and the result is what
		// they make up.
		merged := job.merged
		job.merged = nil
		stopping, failErr := job.stopping, job.failErr
		res := job.stats
		res.Counters, res.Stop = job.totals, job.stop
		job.mu.Unlock()

		if err := job.deliver(merged...); err != nil {
			return nil, err
		}
		if failErr != nil {
			return nil, failErr
		}
		if stopping {
			res.Trees, res.Elapsed = job.trees, clk.Now().Sub(job.start)
			return &res, nil
		}

		// Wake at the deadline itself, not a duration from this iteration's
		// reading of the clock: the clock may have moved on since, and a
		// relative timer armed now would then fire that much too late. A
		// deadline already passed waits out the 1 ms floor.
		wake := now.Add(time.Minute)
		if t := next.Add(time.Millisecond); !next.IsZero() && t.Before(wake) {
			wake = t
		}
		if floor := now.Add(time.Millisecond); wake.Before(floor) {
			wake = floor
		}
		select {
		case <-job.wake:
		case <-clk.Until(wake):
		case <-ctx.Done():
		}
	}
}

// advanceEpoch moves a shard to its next epoch (caller holds job.mu): the
// last durable checkpoint's counters and the trees shipped up to its cut roll
// into the new epoch's base, its frontier becomes the new dispatch point, and
// the shard returns to the pending pool. Without any checkpoint the shard
// re-dispatches from the previous epoch's starting point — same base, pure
// re-execution of work nobody accounted.
func (c *Coordinator) advanceEpoch(job *fleetJob, s *shardState) {
	base := s.base[s.epoch]
	if s.latest != nil {
		base.counters.Add(s.latest.Counters)
		base.trees = s.log.Trees()
		s.dispatchCkpt = job.checkpoint(s.latest.Frontier)
	}
	s.epoch++
	s.base[s.epoch] = base
	s.latest = nil
	s.status = shardPending
}

// leaseTo marks the shard leased to peer p and fires the dispatch RPC in
// the background (caller holds job.mu). The lease deadline starts NOW, not
// at RPC completion: a dispatch that never lands expires like any other
// missed heartbeat, which unifies "worker died before accepting" with
// "worker died after". cause labels the dispatch in the trace (initial /
// redispatch) so offline merges can draw the re-dispatch flow.
func (c *Coordinator) leaseTo(ctx context.Context, job *fleetJob, s *shardState, p int, cause string) {
	s.status = shardLeased
	s.peer = p
	s.deadline = c.cfg.Clock.Now().Add(c.cfg.LeaseTTL)
	if p == c.local {
		job.stats.LocalShards++
	}
	c.cfg.Metrics.ShardsDispatched.Inc()
	job.rec.EmitTagged(obs.EvShardDispatch, -1,
		[]obs.SField{obs.S("peer", c.peerName(p)), obs.S("cause", cause)},
		obs.F("shard", int64(s.idx)), obs.F("epoch", int64(s.epoch)),
		obs.F("mass_ppm", massPPM(s.latestMass)))
	go c.dispatch(ctx, job, s, p, c.request(job, s))
}

// request is the dispatch of a shard's current epoch (caller holds job.mu).
func (c *Coordinator) request(job *fleetJob, s *shardState) *DispatchRequest {
	return &DispatchRequest{
		Proto:           Proto,
		JobID:           job.id,
		Shard:           s.idx,
		Epoch:           s.epoch,
		TraceID:         job.stats.TraceID,
		Fingerprint:     job.fingerprint,
		Trees:           job.newicks,
		Checkpoint:      s.dispatchCkpt,
		CoordURL:        c.cfg.CoordURL,
		Threads:         c.cfg.Threads,
		CollectTrees:    job.sink != nil,
		HeartbeatMillis: c.cfg.HeartbeatEvery.Milliseconds(),
	}
}

// dispatch performs the dispatch RPC with retry/backoff+jitter and folds
// the outcome back into the shard table.
func (c *Coordinator) dispatch(ctx context.Context, job *fleetJob, s *shardState, p int, req *DispatchRequest) {
	_, err := rpc(ctx, c.cfg.Retry, c.cfg.Fault, "dispatch", func() (*DispatchResponse, error) {
		return c.peers[p].Dispatch(ctx, req)
	})
	if err == nil || ctx.Err() != nil {
		// Accepted — or not, by a worker running a newer epoch of this shard
		// (a stale re-dispatch crossed a fresher one, whose heartbeats keep
		// the lease) — or cut short by the job's end, which says nothing of the peer.
		return
	}
	job.mu.Lock()
	job.log.Warn("dispatch failed", "shard", s.idx, "epoch", req.Epoch,
		"peer", c.peerName(p), "error", err.Error())
	c.markDead(p)
	// Only undo the lease if it is still ours — a lease expiry may have
	// advanced the epoch while the RPC was retrying.
	if s.status == shardLeased && s.epoch == req.Epoch && s.peer == p {
		s.status = shardPending
	}
	job.mu.Unlock()
	job.wakeUp()
}

// HandleHeartbeat renews a shard lease and stores the piggybacked durable
// progress. Stale epochs — and heartbeats for stopping or unknown jobs —
// are fenced, telling the worker to cancel.
func (c *Coordinator) HandleHeartbeat(req *HeartbeatRequest) *HeartbeatResponse {
	c.mu.Lock()
	job := c.jobs[req.JobID]
	c.mu.Unlock()
	if job == nil {
		return &HeartbeatResponse{Fenced: true}
	}
	job.mu.Lock()
	defer job.mu.Unlock()
	if req.Shard < 0 || req.Shard >= len(job.shards) {
		return &HeartbeatResponse{Fenced: true}
	}
	s := job.shards[req.Shard]
	// Durable progress is only accepted from the CURRENT epoch: folding an
	// older lineage's newer checkpoint into a re-dispatched shard would
	// double-count the overlap. Nor is it accepted without a frontier — the
	// next dispatch is built around it — or without its trees.
	cp := req.Checkpoint
	stale := req.Proto != Proto || job.stopping || s.status != shardLeased || req.Epoch != s.epoch
	if stale || cp != nil && (cp.Frontier == nil || !s.takeTrees(req.Epoch, req.TreeDelta, cp.Counters.StandTrees)) {
		c.fence(job, s, "heartbeat", req.Proto, req.Epoch, req.Node)
		return &HeartbeatResponse{Fenced: true}
	}
	s.deadline = c.cfg.Clock.Now().Add(c.cfg.LeaseTTL)
	if req.Checkpoint != nil {
		s.latest = req.Checkpoint
		s.latestMass = min(s.latestMass, req.RemainingMass)
	}
	c.mu.Lock() // peer liveness for /healthz and /v1/fleet/status
	c.lastHB[s.peer] = c.cfg.Clock.Now()
	c.mu.Unlock()
	// The recv side of the heartbeat pair: same seq as the worker's
	// shard-hb-send event, which is what the offline merge aligns clocks on.
	job.rec.EmitTagged(obs.EvHeartbeatRecv, -1,
		[]obs.SField{obs.S("node", req.Node)},
		obs.F("shard", int64(req.Shard)), obs.F("epoch", int64(req.Epoch)),
		obs.F("seq", req.Seq), obs.F("mass_ppm", massPPM(req.RemainingMass)))
	return &HeartbeatResponse{}
}

// HandleResult merges a completed shard epoch. Any KNOWN epoch is
// mergeable — the per-epoch bases make late results from fenced lineages
// exact — but only the first completion counts.
func (c *Coordinator) HandleResult(req *ShardResult) *ResultResponse {
	c.mu.Lock()
	job := c.jobs[req.JobID]
	c.mu.Unlock()
	if job == nil {
		return &ResultResponse{Fenced: true}
	}
	job.mu.Lock()
	ok := c.mergeResultLocked(job, req)
	job.mu.Unlock()
	job.wakeUp()
	return &ResultResponse{Fenced: !ok}
}

// mergeResultLocked folds one shard result into the job totals (caller
// holds job.mu) and queues the shard's trees for the control loop to deliver;
// a failed one stops the job with its error instead. It reports false when
// the result was turned away (already merged, unknown shard or epoch, another
// protocol version, trees that do not fit).
func (c *Coordinator) mergeResultLocked(job *fleetJob, req *ShardResult) bool {
	if req.Shard < 0 || req.Shard >= len(job.shards) {
		return false
	}
	s := job.shards[req.Shard]
	base, known := s.base[req.Epoch]
	if req.Proto != Proto || job.stopping || s.status == shardDone || !known ||
		req.Err == "" && !s.takeTrees(req.Epoch, req.TreeDelta, req.Counters.StandTrees) {
		c.fence(job, s, "result", req.Proto, req.Epoch, req.Node)
		return false
	}
	if req.Err != "" {
		if job.failErr == nil {
			job.failErr = fmt.Errorf("dist: shard %d failed on %s: %s", req.Shard, req.Node, req.Err)
		}
		job.stopping = true
		return true
	}
	total := base.counters
	total.Add(req.Counters)
	job.totals.Add(total)
	if s.log != nil {
		// The shard's blocks are the control loop's now, to hand on; nothing
		// is kept of them here.
		job.merged = append(job.merged, s.log.Cut(0, s.log.Trees()).Trees...)
		s.log = nil
	}
	s.status = shardDone
	s.latestMass = 0
	job.rec.EmitTagged(obs.EvShardDone, -1,
		[]obs.SField{obs.S("stop", req.Stop.String()), obs.S("node", req.Node)},
		obs.F("shard", int64(req.Shard)), obs.F("epoch", int64(req.Epoch)),
		obs.F("trees", total.StandTrees), obs.F("states", total.IntermediateStates))
	job.log.Info("shard merged", "shard", req.Shard, "epoch", req.Epoch, "trees", total.StandTrees)
	if req.Stop > search.StopExhausted && req.Stop <= search.StopFailed &&
		req.Stop != search.StopCancelled && job.stop == search.StopExhausted {
		// A shard died on its own limit — should not happen (shards run
		// unlimited) but surface it rather than claim exhaustion.
		job.stop = req.Stop
	}
	c.limitLocked(job, c.cfg.Clock.Now())
	if !slices.ContainsFunc(job.shards, func(sh *shardState) bool { return sh.status != shardDone }) {
		job.stopping = true // the last merge ends the job
	}
	return true
}

// limitLocked stops the job at its first limit passed (caller holds job.mu):
// the merged totals against the tree and state limits, the time since the
// start of Run against the time limit.
func (c *Coordinator) limitLocked(job *fleetJob, now time.Time) {
	reason, hit := job.limits.Exceeded(job.totals, now.Sub(job.start))
	if !hit || job.stopping {
		return
	}
	// Completed counts stand; leased shards are fenced at their next
	// heartbeat or result.
	job.stopping = true
	job.stop = reason
}

// fence turns a heartbeat or a result away (caller holds job.mu). One of
// another protocol version is logged with both numbers, and the peer it came
// from, if it holds the shard's lease, gets no further dispatch.
func (c *Coordinator) fence(job *fleetJob, s *shardState, kind string, proto, epoch int, node string) {
	c.cfg.Metrics.Fenced.Inc()
	job.rec.EmitTagged(obs.EvShardFenced, -1,
		[]obs.SField{obs.S("kind", kind), obs.S("node", node)},
		obs.F("shard", int64(s.idx)), obs.F("epoch", int64(epoch)))
	if proto != Proto {
		job.log.Warn("fleet message of another protocol version fenced",
			"shard", s.idx, "kind", kind, "node", node, "got", proto, "want", Proto)
		if s.status == shardLeased && s.epoch == epoch {
			c.markDead(s.peer)
		}
	}
}

// peerName labels a peer for logs and traces.
func (c *Coordinator) peerName(p int) string { return c.peers[p].Name() }

// markDead records a peer as unreachable. Dead peers stay dead for the
// coordinator's lifetime (the drill model is crash, not partition); the
// fleet gauge tracks the survivors. The local worker never dies.
func (c *Coordinator) markDead(p int) {
	if p == c.local {
		return
	}
	c.mu.Lock()
	if c.alive[p] {
		c.alive[p] = false
		c.live--
		c.cfg.Metrics.WorkersLive.Set(int64(c.live))
		c.cfg.Logger.Warn("peer marked dead", "peer", c.peerName(p), "live", c.live)
	}
	c.mu.Unlock()
}

// pickPeer chooses the live configured peer with the fewest active leases
// (counted in this job: caller holds job.mu), and the local worker when no
// configured peer is alive.
func (c *Coordinator) pickPeer(job *fleetJob) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	leases := make([]int, len(c.peers))
	for _, s := range job.shards {
		if s.status == shardLeased {
			leases[s.peer]++
		}
	}
	best := c.local
	for p, a := range c.alive[:c.local] {
		if a && (best == c.local || leases[p] < leases[best]) {
			best = p
		}
	}
	return best
}
