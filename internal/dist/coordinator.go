package dist

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"sync"
	"time"

	"gentrius"
	"gentrius/internal/faultinject"
	"gentrius/internal/obs"
	"gentrius/internal/retry"
	"gentrius/internal/search"
	"gentrius/internal/tree"
)

// Config sizes a Coordinator.
type Config struct {
	// Peers are the worker endpoints shards are dispatched to. An empty
	// fleet is legal: every shard runs locally (the degenerate case the
	// graceful-degradation path also lands in when all peers die).
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
	// StragglerAfter: a leased shard whose remaining estimator mass has
	// not decreased for this long is speculatively re-dispatched when an
	// idle live peer exists (0 disables).
	StragglerAfter time.Duration
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

	mu     sync.Mutex
	jobs   map[string]*fleetJob
	alive  []bool
	lastHB []time.Time // last accepted heartbeat per peer (zero: never)
}

// NewCoordinator validates and applies defaults.
func NewCoordinator(cfg Config) *Coordinator {
	if cfg.Shards <= 0 {
		cfg.Shards = 2 * len(cfg.Peers)
		if cfg.Shards < 2 {
			cfg.Shards = 2
		}
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = DefaultLeaseTTL
	}
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = DefaultHeartbeatEvery
	}
	if cfg.Clock == nil {
		cfg.Clock = RealClock{}
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if cfg.Metrics == nil {
		cfg.Metrics = &Metrics{} // zero value discards every update
	}
	if cfg.Retry.Sleep == nil {
		clk := cfg.Clock
		cfg.Retry.Sleep = clk.Sleep
	}
	c := &Coordinator{cfg: cfg, jobs: map[string]*fleetJob{},
		alive: make([]bool, len(cfg.Peers)), lastHB: make([]time.Time, len(cfg.Peers))}
	for i := range c.alive {
		c.alive[i] = true
	}
	c.cfg.Metrics.WorkersLive.Set(int64(len(cfg.Peers)))
	return c
}

// RunOptions configures one distributed enumeration.
type RunOptions struct {
	// CollectTrees ships every stand tree back to the coordinator (and
	// into Result.Trees / OnTree). Counting-only jobs leave it false.
	CollectTrees bool
	// OnTree receives each merged stand tree exactly once, at shard
	// completion (not streaming: exactly-once delivery is resolved at the
	// merge, after fencing).
	OnTree func(newick string)
	// Heuristic refines the insertion order (zero: the paper's rule).
	Heuristic search.OrderHeuristic
	// InitialTree: constraint index, or negative for the heuristic.
	InitialTree int
	// Limits are the job-level stopping rules, enforced COARSELY: shards
	// run unlimited and the coordinator checks merged totals at shard
	// completion, so a limit overshoots by up to the in-flight shards'
	// work. Zero values mean unlimited here (the caller owns defaults).
	Limits search.Limits
}

// Result is a distributed enumeration's merged outcome.
type Result struct {
	Counters search.Counters
	Trees    []string
	Stop     search.StopReason
	// InitialIndex is the constraint index used as the initial agile tree.
	InitialIndex int
	// TraceID is the fleet-run trace id every node stamped on this job's
	// trace events (deterministic: fleetTraceID of job id + fingerprint).
	TraceID string

	// Fleet statistics for this job.
	LeaseExpiries int64
	Redispatches  int64
	Speculative   int64
	LocalShards   int64
	Adopted       int64
}

// Shard lifecycle.
const (
	shardPending = iota // waiting for a peer (or local slot)
	shardLeased         // dispatched, lease ticking
	shardDone           // result merged
)

type shardState struct {
	idx      int
	status   int
	epoch    int
	peer     int // peer index; -1 = local fallback
	deadline time.Time

	// dispatchCkpt is the current epoch's resume point (counters zeroed).
	dispatchCkpt *search.Checkpoint
	// latest is the newest CURRENT-epoch checkpoint from a heartbeat,
	// with latestTrees the since-dispatch trees aligned to its cut.
	latest      *search.Checkpoint
	latestTrees []string
	latestMass  float64
	initialMass float64 // estimator mass at shard creation (fraction base)
	progressAt  time.Time

	// Per-epoch merge bases: counters and tree-log prefix length already
	// accounted when each epoch was dispatched. treeLog accumulates the
	// checkpoint-cut trees of superseded epochs; epoch e's final trees
	// are treeLog[:baseTreeLen[e]] + result.Trees.
	baseCounters map[int]search.Counters
	baseTreeLen  map[int]int
	treeLog      []string
}

type fleetJob struct {
	id          string
	constraints []*tree.Tree
	newicks     []string
	fingerprint string
	initialIdx  int
	heuristic   search.OrderHeuristic
	opt         RunOptions
	// traceID is the fleet-run trace id; rec and log are the job-scoped
	// recorder (fixed {trace, job} tags) and slog handle (trace attr) every
	// coordinator-side emission for this job goes through.
	traceID string
	rec     *obs.Recorder
	log     *slog.Logger

	mu        sync.Mutex
	shards    []*shardState
	totals    search.Counters
	trees     []string
	delivered int // prefix of trees already handed to OnTree
	done      int
	stopping  bool
	stop      search.StopReason
	failErr   error
	wake      chan struct{}

	stats Result
}

func (j *fleetJob) wakeUp() {
	select {
	case j.wake <- struct{}{}:
	default:
	}
}

// Run executes one distributed enumeration and blocks until it completes,
// fails, or ctx ends (StopCancelled). jobID must be unique per coordinator.
func (c *Coordinator) Run(ctx context.Context, jobID string, constraints []*tree.Tree, opt RunOptions) (*Result, error) {
	if len(constraints) == 0 {
		return nil, fmt.Errorf("dist: no constraint trees")
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
	// initial-split branch (weight 1/B), partitioned into shards below.
	su, err := search.Start(cons, opt.InitialTree, opt.Heuristic, nil, 0)
	if err != nil {
		return nil, err
	}
	idx := su.InitialIndex
	if len(su.Frontier.Tasks) == 0 {
		// An empty stand, or a prefix that closed the whole space.
		res := &Result{Counters: su.Counters, InitialIndex: idx}
		if su.Tree != "" {
			if opt.CollectTrees {
				res.Trees = []string{su.Tree}
			}
			if opt.OnTree != nil {
				opt.OnTree(su.Tree)
			}
		}
		return res, nil
	}

	job := &fleetJob{
		id:          jobID,
		constraints: cons,
		newicks:     newicks,
		fingerprint: search.Fingerprint(cons),
		initialIdx:  idx,
		heuristic:   opt.Heuristic,
		opt:         opt,
		totals:      su.Counters,
		wake:        make(chan struct{}, 1),
		stop:        search.StopExhausted,
	}
	job.traceID = fleetTraceID(jobID, job.fingerprint)
	job.rec = c.cfg.Trace.With([]obs.SField{obs.S("trace", job.traceID), obs.S("job", jobID)})
	job.log = c.cfg.Logger.With("trace", job.traceID)
	job.stats.InitialIndex = idx
	job.stats.TraceID = job.traceID

	var totalMass float64
	for i, fr := range search.SplitFrontier(su.Frontier, c.cfg.Shards) {
		s := &shardState{
			idx:          i,
			status:       shardPending,
			epoch:        1,
			peer:         -1,
			dispatchCkpt: search.NewFrontierCheckpoint(cons, idx, opt.Heuristic, search.Counters{}, fr),
			baseCounters: map[int]search.Counters{1: {}},
			baseTreeLen:  map[int]int{1: 0},
		}
		s.latestMass = fr.RemainingMass()
		s.initialMass = s.latestMass
		totalMass += s.latestMass
		s.progressAt = c.cfg.Clock.Now()
		job.shards = append(job.shards, s)
	}
	job.rec.Emit(obs.EvFleetRun, -1,
		obs.F("shards", int64(len(job.shards))), obs.F("mass_ppm", massPPM(totalMass)))
	job.log.Info("fleet run started", "job", jobID,
		"shards", len(job.shards), "peers", len(c.cfg.Peers))

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

	return c.controlLoop(ctx, job)
}

// controlLoop drives one job: dispatching pending shards, expiring leases,
// chasing stragglers, delivering merged trees, and deciding completion.
func (c *Coordinator) controlLoop(ctx context.Context, job *fleetJob) (*Result, error) {
	clk := c.cfg.Clock
	for {
		now := clk.Now()

		job.mu.Lock()
		// Lease expiry: a leased shard past its deadline re-enters the
		// pending pool at the next epoch, resuming from its last durable
		// checkpoint (resume-not-replay).
		for _, s := range job.shards {
			if s.status == shardLeased && s.peer >= 0 && now.After(s.deadline) {
				c.cfg.Metrics.LeaseExpiries.Inc()
				job.stats.LeaseExpiries++
				job.rec.EmitTagged(obs.EvLeaseExpire, -1,
					[]obs.SField{obs.S("peer", c.peerName(s.peer))},
					obs.F("shard", int64(s.idx)), obs.F("epoch", int64(s.epoch)))
				job.log.Warn("shard lease expired", "job", job.id,
					"shard", s.idx, "epoch", s.epoch, "peer", c.peerName(s.peer))
				// The peer is NOT marked dead here: a missed heartbeat may
				// mean only its return path failed (it could be computing,
				// orphaned, with a result to park). A truly dead peer is
				// detected when the next dispatch RPC to it fails.
				c.advanceEpoch(job, s)
				job.stats.Redispatches++
				c.cfg.Metrics.Redispatches.Inc()
			}
		}

		// Straggler detection: remaining mass flat for StragglerAfter and
		// an idle live peer available → speculative re-dispatch. The old
		// epoch is fenced at its next heartbeat, but a completed result
		// from it is still mergeable — first completion wins.
		if c.cfg.StragglerAfter > 0 && !job.stopping {
			for _, s := range job.shards {
				if s.status != shardLeased || s.peer < 0 {
					continue
				}
				if now.Sub(s.progressAt) < c.cfg.StragglerAfter {
					continue
				}
				idle := c.idlePeer(job, s.peer)
				if idle < 0 {
					continue
				}
				c.cfg.Metrics.Speculative.Inc()
				job.stats.Speculative++
				job.log.Info("straggler shard re-dispatched speculatively",
					"job", job.id, "shard", s.idx, "epoch", s.epoch,
					"from", c.peerName(s.peer), "to", c.peerName(idle))
				c.advanceEpoch(job, s)
				c.leaseTo(ctx, job, s, idle, "straggler")
			}
		}

		// Dispatch pending shards; with the fleet at zero, degrade to
		// local execution through the same epoch accounting.
		if !job.stopping {
			for _, s := range job.shards {
				if s.status != shardPending {
					continue
				}
				cause := "initial"
				if s.epoch > 1 {
					cause = "redispatch"
				}
				if p := c.pickPeer(job); p >= 0 {
					c.leaseTo(ctx, job, s, p, cause)
				} else {
					c.runLocally(ctx, job, s)
				}
			}
		}

		// Deliver merged trees (exactly-once: the merge already resolved
		// epochs) outside the lock.
		var deliver []string
		if job.opt.OnTree != nil && job.delivered < len(job.trees) {
			deliver = job.trees[job.delivered:]
			job.delivered = len(job.trees)
		}

		finished := job.done == len(job.shards)
		failErr := job.failErr
		// Earliest deadline the loop must wake for.
		var next time.Time
		for _, s := range job.shards {
			if s.status != shardLeased || s.peer < 0 {
				continue
			}
			if next.IsZero() || s.deadline.Before(next) {
				next = s.deadline
			}
			if c.cfg.StragglerAfter > 0 {
				if sd := s.progressAt.Add(c.cfg.StragglerAfter); sd.Before(next) {
					next = sd
				}
			}
		}
		job.mu.Unlock()

		for _, nw := range deliver {
			job.opt.OnTree(nw)
		}
		if failErr != nil {
			return nil, failErr
		}
		if finished {
			job.mu.Lock()
			res := job.stats
			res.Counters = job.totals
			res.Trees = job.trees
			res.Stop = job.stop
			job.mu.Unlock()
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
			job.mu.Lock()
			job.stopping = true
			job.stop = search.StopCancelled
			res := job.stats
			res.Counters = job.totals
			res.Trees = job.trees
			res.Stop = search.StopCancelled
			job.mu.Unlock()
			return &res, nil
		}
	}
}

// advanceEpoch moves a shard to its next epoch (caller holds job.mu): the
// last durable checkpoint's counters and tree cut roll into the new epoch's
// base, its frontier becomes the new dispatch point, and the shard returns
// to the pending pool. Without any checkpoint the shard re-dispatches from
// the previous epoch's starting point — same base, pure re-execution of
// work nobody accounted.
func (c *Coordinator) advanceEpoch(job *fleetJob, s *shardState) {
	base := s.baseCounters[s.epoch]
	if s.latest != nil {
		base.Add(s.latest.Counters)
		s.treeLog = append(s.treeLog, s.latestTrees...)
		s.dispatchCkpt = search.NewFrontierCheckpoint(job.constraints, job.initialIdx,
			job.heuristic, search.Counters{}, s.latest.Frontier)
	}
	s.epoch++
	s.baseCounters[s.epoch] = base
	s.baseTreeLen[s.epoch] = len(s.treeLog)
	s.latest = nil
	s.latestTrees = nil
	s.status = shardPending
	s.peer = -1
}

// leaseTo marks the shard leased to peer p and fires the dispatch RPC in
// the background (caller holds job.mu). The lease deadline starts NOW, not
// at RPC completion: a dispatch that never lands expires like any other
// missed heartbeat, which unifies "worker died before accepting" with
// "worker died after". cause labels the dispatch in the trace (initial /
// redispatch / straggler) so offline merges can draw the re-dispatch flow.
func (c *Coordinator) leaseTo(ctx context.Context, job *fleetJob, s *shardState, p int, cause string) {
	s.status = shardLeased
	s.peer = p
	s.deadline = c.cfg.Clock.Now().Add(c.cfg.LeaseTTL)
	s.progressAt = c.cfg.Clock.Now()
	req := &DispatchRequest{
		JobID:           job.id,
		Shard:           s.idx,
		Epoch:           s.epoch,
		TraceID:         job.traceID,
		Fingerprint:     job.fingerprint,
		Trees:           job.newicks,
		Checkpoint:      s.dispatchCkpt,
		CoordURL:        c.cfg.CoordURL,
		Threads:         c.cfg.Threads,
		CollectTrees:    job.opt.CollectTrees,
		LeaseTTLMillis:  c.cfg.LeaseTTL.Milliseconds(),
		HeartbeatMillis: c.cfg.HeartbeatEvery.Milliseconds(),
	}
	c.cfg.Metrics.ShardsDispatched.Inc()
	job.rec.EmitTagged(obs.EvShardDispatch, -1,
		[]obs.SField{obs.S("peer", c.peerName(p)), obs.S("cause", cause)},
		obs.F("shard", int64(s.idx)), obs.F("epoch", int64(s.epoch)),
		obs.F("mass_ppm", massPPM(s.latestMass)))
	go c.dispatch(ctx, job, s, p, req)
}

// dispatch performs the dispatch RPC with retry/backoff+jitter and folds
// the outcome back into the shard table.
func (c *Coordinator) dispatch(ctx context.Context, job *fleetJob, s *shardState, p int, req *DispatchRequest) {
	resp, err := rpc(ctx, c.cfg.Retry, c.cfg.Fault, "dispatch", func() (*DispatchResponse, error) {
		return c.cfg.Peers[p].Dispatch(ctx, req)
	})

	job.mu.Lock()
	defer func() {
		job.mu.Unlock()
		job.wakeUp()
	}()
	if err != nil {
		job.log.Warn("dispatch failed", "job", job.id, "shard", s.idx,
			"epoch", req.Epoch, "peer", c.peerName(p), "error", err.Error())
		c.markDead(p)
		// Only undo the lease if it is still ours — a lease expiry may
		// have advanced the epoch while the RPC was retrying.
		if s.status == shardLeased && s.epoch == req.Epoch && s.peer == p {
			s.status = shardPending
			s.peer = -1
		}
		return
	}
	if resp.Parked != nil {
		// The worker finished an earlier epoch of this shard while
		// orphaned; adopt that result instead of the new lease.
		c.cfg.Metrics.ParkedAdopted.Inc()
		job.stats.Adopted++
		job.rec.EmitTagged(obs.EvShardAdopted, -1,
			[]obs.SField{obs.S("peer", c.peerName(p))},
			obs.F("shard", int64(s.idx)), obs.F("epoch", int64(resp.Parked.Epoch)))
		if !c.mergeResultLocked(job, resp.Parked) && s.status == shardLeased &&
			s.epoch == req.Epoch && s.peer == p {
			// Unknown epoch (coordinator restarted?): fall back to
			// re-dispatching the shard.
			s.status = shardPending
			s.peer = -1
		}
		return
	}
	if !resp.Accepted {
		// The worker is already running a newer epoch of this shard (a
		// stale re-dispatch crossed a fresher one). Leave the lease to
		// expire naturally; the newer run's heartbeats keep it alive.
		return
	}
}

// runLocally executes the shard in-process — the fleet-at-zero degradation
// path. Caller holds job.mu. The shard is marked leased to the virtual
// local peer (-1) with no expiring deadline: local runs cannot vanish, and
// they honour ctx directly.
func (c *Coordinator) runLocally(ctx context.Context, job *fleetJob, s *shardState) {
	s.status = shardLeased
	s.peer = -1
	s.deadline = c.cfg.Clock.Now().Add(100 * 365 * 24 * time.Hour)
	epoch := s.epoch
	ckpt := s.dispatchCkpt
	c.cfg.Metrics.LocalFallbacks.Inc()
	job.stats.LocalShards++
	job.rec.EmitTagged(obs.EvFleetLocal, -1, nil,
		obs.F("shard", int64(s.idx)), obs.F("epoch", int64(epoch)))
	job.log.Info("no live peers: running shard locally",
		"job", job.id, "shard", s.idx, "epoch", epoch)
	go func() {
		threads := c.cfg.Threads
		if threads < 1 {
			threads = 1
		}
		res, err := gentrius.EnumerateStandContext(ctx, job.constraints, gentrius.Options{
			Threads:      threads,
			MaxTrees:     -1,
			MaxStates:    -1,
			MaxTime:      -1,
			CollectTrees: job.opt.CollectTrees,
			Checkpoint:   &gentrius.CheckpointPolicy{Resume: ckpt},
			Fault:        c.cfg.Fault,
		})
		if err != nil {
			job.mu.Lock()
			if job.failErr == nil {
				job.failErr = fmt.Errorf("dist: local shard %d: %w", s.idx, err)
			}
			job.mu.Unlock()
			job.wakeUp()
			return
		}
		c.HandleResult(&ShardResult{
			JobID:   job.id,
			Shard:   s.idx,
			Epoch:   epoch,
			TraceID: job.traceID,
			Node:    "local",
			Stop:    res.Stop.String(),
			Counters: search.Counters{
				StandTrees:         res.StandTrees,
				IntermediateStates: res.IntermediateStates,
				DeadEnds:           res.DeadEnds,
			},
			Trees: res.Trees,
		})
	}()
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
	if job.stopping || s.status != shardLeased || req.Epoch != s.epoch {
		c.cfg.Metrics.Fenced.Inc()
		job.rec.EmitTagged(obs.EvShardFenced, -1,
			[]obs.SField{obs.S("kind", "heartbeat"), obs.S("node", req.Node)},
			obs.F("shard", int64(req.Shard)), obs.F("epoch", int64(req.Epoch)))
		return &HeartbeatResponse{Fenced: true}
	}
	s.deadline = c.cfg.Clock.Now().Add(c.cfg.LeaseTTL)
	if req.Checkpoint != nil {
		// Durable progress is only accepted from the CURRENT epoch:
		// folding an older lineage's newer checkpoint into a re-dispatched
		// shard would double-count the overlap.
		s.latest = req.Checkpoint
		s.latestTrees = req.Trees
		if req.RemainingMass < s.latestMass {
			s.latestMass = req.RemainingMass
			s.progressAt = c.cfg.Clock.Now()
		}
	}
	c.cfg.Metrics.HeartbeatsRecv.Inc()
	c.notePeerHeartbeat(s.peer)
	// The recv side of the heartbeat pair: same seq as the worker's
	// shard-hb-send event, which is what the offline merge aligns clocks on.
	job.rec.EmitTagged(obs.EvHeartbeatRecv, -1,
		[]obs.SField{obs.S("node", req.Node)},
		obs.F("shard", int64(req.Shard)), obs.F("epoch", int64(req.Epoch)),
		obs.F("seq", req.Seq), obs.F("mass_ppm", massPPM(req.RemainingMass)))
	return &HeartbeatResponse{}
}

// notePeerHeartbeat records peer liveness for /healthz and /v1/fleet/status.
func (c *Coordinator) notePeerHeartbeat(p int) {
	if p < 0 || p >= len(c.lastHB) {
		return
	}
	c.mu.Lock()
	c.lastHB[p] = c.cfg.Clock.Now()
	c.mu.Unlock()
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
// holds job.mu). It reports false when the result was turned away (already
// merged, unknown epoch, or unknown shard).
func (c *Coordinator) mergeResultLocked(job *fleetJob, req *ShardResult) bool {
	if req.Shard < 0 || req.Shard >= len(job.shards) {
		return false
	}
	s := job.shards[req.Shard]
	if s.status == shardDone {
		c.cfg.Metrics.Fenced.Inc()
		return false
	}
	base, known := s.baseCounters[req.Epoch]
	if !known {
		c.cfg.Metrics.Fenced.Inc()
		job.rec.EmitTagged(obs.EvShardFenced, -1,
			[]obs.SField{obs.S("kind", "result"), obs.S("node", req.Node)},
			obs.F("shard", int64(req.Shard)), obs.F("epoch", int64(req.Epoch)))
		return false
	}
	total := base
	total.Add(req.Counters)
	job.totals.Add(total)
	if job.opt.CollectTrees {
		job.trees = append(job.trees, s.treeLog[:s.baseTreeLen[req.Epoch]]...)
		job.trees = append(job.trees, req.Trees...)
	}
	s.status = shardDone
	s.latestMass = 0
	job.done++
	c.cfg.Metrics.ShardsCompleted.Inc()
	job.rec.EmitTagged(obs.EvShardDone, -1,
		[]obs.SField{obs.S("stop", req.Stop), obs.S("node", req.Node)},
		obs.F("shard", int64(req.Shard)), obs.F("epoch", int64(req.Epoch)),
		obs.F("trees", total.StandTrees), obs.F("states", total.IntermediateStates))
	job.log.Info("shard merged", "job", job.id, "shard", req.Shard,
		"epoch", req.Epoch, "trees", total.StandTrees)
	if req.Stop != "" && req.Stop != search.StopExhausted.String() &&
		req.Stop != search.StopCancelled.String() && job.stop == search.StopExhausted {
		// A shard died on its own limit — should not happen (shards run
		// unlimited) but surface it rather than claim exhaustion.
		for r := search.StopExhausted; r <= search.StopFailed; r++ {
			if r.String() == req.Stop {
				job.stop = r
			}
		}
	}
	// Coarse job-level stopping rules, evaluated at merge points.
	if reason, hit := job.opt.Limits.Exceeded(job.totals, 0); hit && !job.stopping {
		job.stopping = true
		job.stop = reason
		// Un-dispatched work stays pending forever; completed counts
		// stand. Leased shards get fenced at their next heartbeat. Mark
		// everything not yet done as done so the loop terminates.
		for _, sh := range job.shards {
			if sh.status != shardDone {
				sh.status = shardDone
				job.done++
			}
		}
	}
	return true
}

// peerName labels a peer for logs and traces.
func (c *Coordinator) peerName(p int) string {
	if p < 0 || p >= len(c.cfg.Peers) {
		return "local"
	}
	return c.cfg.Peers[p].Name()
}

// markDead records a peer as unreachable. Dead peers stay dead for the
// coordinator's lifetime (the drill model is crash, not partition); the
// fleet gauge tracks the survivors.
func (c *Coordinator) markDead(p int) {
	if p < 0 || p >= len(c.alive) {
		return
	}
	c.mu.Lock()
	if c.alive[p] {
		c.alive[p] = false
		live := 0
		for _, a := range c.alive {
			if a {
				live++
			}
		}
		c.cfg.Metrics.WorkersLive.Set(int64(live))
		c.cfg.Logger.Warn("peer marked dead", "peer", c.peerName(p), "live", live)
	}
	c.mu.Unlock()
}

// pickPeer chooses the live peer with the fewest active leases across all
// jobs of this coordinator (approximated per-job: caller holds job.mu).
// Returns -1 with the fleet at zero.
func (c *Coordinator) pickPeer(job *fleetJob) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	leases := make([]int, len(c.cfg.Peers))
	for _, s := range job.shards {
		if s.status == shardLeased && s.peer >= 0 {
			leases[s.peer]++
		}
	}
	best := -1
	for p, a := range c.alive {
		if !a {
			continue
		}
		if best < 0 || leases[p] < leases[best] {
			best = p
		}
	}
	return best
}

// idlePeer returns a live peer other than except with no active lease in
// this job, or -1. Caller holds job.mu.
func (c *Coordinator) idlePeer(job *fleetJob, except int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	busy := make([]bool, len(c.cfg.Peers))
	for _, s := range job.shards {
		if s.status == shardLeased && s.peer >= 0 {
			busy[s.peer] = true
		}
	}
	for p, a := range c.alive {
		if a && !busy[p] && p != except {
			return p
		}
	}
	return -1
}
