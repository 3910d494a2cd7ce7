// Package service is the long-running enumeration front end the ROADMAP's
// production target asks for: a job manager with a bounded worker pool
// around the gentrius engines, file-backed result spools so stand trees
// stream to subscribers without ever buffering a whole (potentially
// 10^6-tree) stand in memory, per-job cancellation and deadlines, and
// graceful shutdown that checkpoints in-flight jobs — serial or parallel —
// for later resumption. cmd/gentriusd exposes it over HTTP.
//
// Fault tolerance: every move of a job through its lifecycle is appended to
// an fsynced NDJSON journal, by transition. A job's submit record is durable
// before the job is in the job table or the queue (so before Submit returns,
// and before a worker can journal a state for it); a terminal record is
// durable before Done() closes, before the spool closes and ends a /trees
// stream, and before a complete job's obsolete checkpoint is deleted. Status,
// stats and /healthz may report a state for the length of one fsync before
// its record is durable: a crash in that window replays the record before
// it. Jobs checkpoint periodically when Config.CheckpointInterval is set
// (a job's snapshot is its task frontier, quiesced at any thread count), and
// New replays the journal on startup — finished jobs are
// re-adopted with their spools, running jobs resume from their latest
// checkpoint at any thread count, queued jobs requeue, and everything else
// is marked interrupted. A SIGKILL therefore loses at most the work since
// the last checkpoint, and never a finished result.
package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"gentrius"
	"gentrius/internal/buildinfo"
	"gentrius/internal/dist"
	"gentrius/internal/faultinject"
	"gentrius/internal/obs"
	"gentrius/internal/retry"
	"gentrius/internal/search"
	"gentrius/internal/tree"
)

// Config sizes the manager.
type Config struct {
	// Workers is the number of jobs that run concurrently (default 1).
	// Further accepted jobs wait in the queue.
	Workers int
	// QueueCap bounds the number of queued-but-not-running jobs; Submit
	// rejects with ErrQueueFull beyond it (default 16). Jobs recovered
	// from the journal never count against it.
	QueueCap int
	// DataDir holds the per-job tree spools, checkpoints and the job
	// journal. It must be set (cmd/gentriusd defaults it to a fresh temp
	// directory); pointing a restarted daemon at the same directory
	// recovers the previous run's jobs.
	DataDir string
	// MaxThreads caps a job's requested thread count (default 1 — a
	// conservative resource default; parallel jobs checkpoint and resume
	// just like serial ones).
	MaxThreads int
	// MaxTime caps the per-job wall-time limit. Requests asking for more
	// (or for unlimited time) are clamped to it; zero leaves the engine's
	// paper default of 168 h in charge.
	MaxTime time.Duration
	// Checkpoint enables checkpoint-on-stop for jobs at any thread count:
	// a cancelled job (including jobs interrupted by Shutdown) writes a
	// resumable snapshot, its task frontier, next to its spool; the snapshot
	// resumes at any thread count.
	Checkpoint bool
	// CheckpointInterval checkpoints running jobs on a wall-clock cadence
	// (0 disables), at any thread count: what makes a job killed -9
	// resumable from its latest snapshot. Each parallel snapshot briefly
	// quiesces the job's worker pool.
	CheckpointInterval time.Duration
	// MaxConstraintTrees rejects submissions with more constraint trees
	// with a structured *LimitError (0 = unlimited).
	MaxConstraintTrees int
	// MaxTaxa rejects submissions whose taxon universe is larger (0 =
	// unlimited).
	MaxTaxa int
	// MaxBodyBytes caps the POST /jobs request body; larger bodies get
	// 413 (0 = unlimited).
	MaxBodyBytes int64
	// Fault attaches deterministic fault injection to the persistence
	// paths (spool, checkpoint, journal writes) and to the jobs' engines
	// (nil: no faults).
	Fault *faultinject.Injector
	// Fleet, when non-nil, runs submitted jobs across a gentriusd fleet
	// through this coordinator instead of the local engine: shard leases,
	// heartbeats, retries and the exactly-once merge live in internal/dist.
	// Merged trees still stream into the job spool. Jobs recovered with a
	// resume checkpoint keep running locally (shard state lives in the
	// coordinator, not in job checkpoints), and fleet jobs do not serve
	// POST /jobs/{id}/checkpoint — the coordinator owns their frontiers.
	Fleet *dist.Coordinator
	// FleetWorker, when non-nil, is this node's shard-lease executor; its
	// in-flight lease count (and, absent a coordinator, its role) appears
	// in the /healthz fleet section.
	FleetWorker *dist.Worker
	// Metrics receives the service-level instruments (nil: discard).
	Metrics *Metrics
	// Sink is the engine observability sink shared by every job (the
	// aggregate gentrius_* counters across jobs); nil disables it. Each job
	// additionally gets its own work estimator, so per-job progress is
	// observable regardless of Sink.
	Sink *gentrius.ObsSink
	// Logger receives structured job-lifecycle logs, every record carrying
	// the job id (nil: discard).
	Logger *slog.Logger
}

// Metrics is the service-level instrument set. The zero value discards
// every update (obs instruments are nil-safe).
type Metrics struct {
	reg *obs.Registry // for the per-route HTTP families; nil disables them

	JobsDone      *obs.Counter
	JobsCancelled *obs.Counter
	JobsFailed    *obs.Counter
	JobsRunning   *obs.Gauge
	JobsQueued    *obs.Gauge

	// Per-job latency distributions: how long jobs waited for a pool
	// worker, and how long they ran.
	QueueWait *obs.Histogram
	ExecTime  *obs.Histogram

	// Fault-tolerance instruments.
	JobsInterrupted   *obs.Counter
	SpoolDropped      *obs.Counter
	JournalRecords    *obs.Counter
	JournalDropped    *obs.Counter
	CheckpointWrites  *obs.Counter
	CheckpointDropped *obs.Counter

	retry map[string]retry.Policy // by site; nil on the zero value
}

// RetryPolicy is the daemon's shared transient-failure discipline for one of
// the four sites NewMetrics registers — internal/retry defaults (4 attempts,
// jittered 1ms→100ms capped backoff) with every retried failure counted in
// gentriusd_retry_total{site}. The counter is resolved once, there: the
// spool, the journal and the checkpoint writer keep their policy, and
// internal/dist borrows "shardrpc" for coordinator↔worker RPCs. The zero
// Metrics hands out the uncounted default.
func (m *Metrics) RetryPolicy(site string) retry.Policy { return m.retry[site] }

// NewMetrics registers the service instruments on reg under gentriusd_*.
func NewMetrics(reg *obs.Registry) *Metrics {
	policies := map[string]retry.Policy{}
	for _, site := range []string{"spool", "journal", "checkpoint", "shardrpc"} {
		c := reg.Counter(fmt.Sprintf("gentriusd_retry_total{site=%q}", site),
			"transient failures retried, by site")
		policies[site] = retry.Policy{OnRetry: func(int, error) { c.Inc() }}
	}
	return &Metrics{
		reg:   reg,
		retry: policies,

		JobsDone:      reg.Counter("gentriusd_jobs_done_total", "jobs finished (exhausted or stopping rule)"),
		JobsCancelled: reg.Counter("gentriusd_jobs_cancelled_total", "jobs cancelled (client or shutdown)"),
		JobsFailed:    reg.Counter("gentriusd_jobs_failed_total", "jobs failed with an error"),
		JobsRunning:   reg.Gauge("gentriusd_jobs_running", "jobs currently running"),
		JobsQueued:    reg.Gauge("gentriusd_jobs_queued", "jobs waiting for a worker"),

		QueueWait: reg.Histogram("gentriusd_job_queue_wait_seconds",
			"seconds jobs waited in the queue before a pool worker picked them up",
			obs.ExpBuckets(1e-3, 4, 12)),
		ExecTime: reg.Histogram("gentriusd_job_exec_seconds",
			"seconds jobs ran before reaching a terminal state",
			obs.ExpBuckets(1e-2, 4, 12)),

		JobsInterrupted:   reg.Counter("gentriusd_jobs_interrupted_total", "jobs found unresumable after restart"),
		SpoolDropped:      reg.Counter("gentriusd_spool_lines_dropped_total", "spool lines dropped after exhausting retries"),
		JournalRecords:    reg.Counter("gentriusd_journal_records_total", "journal records written"),
		JournalDropped:    reg.Counter("gentriusd_journal_records_dropped_total", "journal records dropped after exhausting retries"),
		CheckpointWrites:  reg.Counter("gentriusd_checkpoint_writes_total", "job checkpoints persisted"),
		CheckpointDropped: reg.Counter("gentriusd_checkpoint_writes_dropped_total", "checkpoint writes abandoned after exhausting retries"),
	}
}

// State is a job's lifecycle phase.
type State string

// Job states.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"      // exhausted or a stopping rule fired
	StateCancelled State = "cancelled" // client cancel or daemon shutdown
	StateFailed    State = "failed"
	// StateInterrupted marks a job that was running when the daemon died
	// and could not be resumed on restart (no usable checkpoint). Its
	// spool holds whatever was found; resubmit to rerun.
	StateInterrupted State = "interrupted"
)

// stateNone is the state of a job the manager does not hold yet: built by
// Submit or by New's replay, and in the job table after its first move.
const stateNone State = ""

// lifecycle is the job state machine: every state, and the states a job may
// move to from it. transition refuses any move that is not listed here, so
// a job reaches exactly one terminal state, once.
var lifecycle = map[State][]State{
	// Submit queues a new job; New re-enacts the journal's last word on an
	// old one: requeue or resume it, adopt its terminal state, or interrupt
	// what cannot be resumed.
	stateNone: {StateQueued, StateDone, StateCancelled, StateFailed, StateInterrupted},
	// A pool worker pops the job, or Cancel/Shutdown get there first.
	StateQueued: {StateRunning, StateCancelled},
	// The worker that ran the job reports how it ended.
	StateRunning:     {StateDone, StateCancelled, StateFailed},
	StateDone:        nil,
	StateCancelled:   nil,
	StateFailed:      nil,
	StateInterrupted: nil,
}

// terminal reports whether s is a state no job leaves.
func terminal(s State) bool {
	next, ok := lifecycle[s]
	return ok && len(next) == 0
}

// JobRequest is a submitted enumeration: either Trees (Newick constraint
// trees, one per entry) or Species+PAM (file contents, the CLI's second
// input mode), plus the run configuration.
type JobRequest struct {
	Trees   []string `json:"trees,omitempty"`
	Species string   `json:"species,omitempty"`
	PAM     string   `json:"pam,omitempty"`

	Threads int `json:"threads,omitempty"`
	// The three stopping rules (0 = paper default, <0 = unlimited, subject
	// to the daemon's MaxTime cap).
	MaxTrees       int64   `json:"max_trees,omitempty"`
	MaxStates      int64   `json:"max_states,omitempty"`
	MaxTimeSeconds float64 `json:"max_time_seconds,omitempty"`
}

// ErrQueueFull is returned by Submit when the pending-job queue is at
// capacity.
var ErrQueueFull = fmt.Errorf("service: job queue full")

// ErrShuttingDown is returned by Submit after Shutdown began.
var ErrShuttingDown = fmt.Errorf("service: shutting down")

// ErrUnknownJob is returned for operations on a job id the manager does
// not know.
var ErrUnknownJob = fmt.Errorf("service: unknown job")

// ErrNotRunning is returned by RequestCheckpoint when the job is not in
// the running state (queued, or already terminal).
var ErrNotRunning = fmt.Errorf("service: job is not running")

// LimitError is a submission rejected by a configured size limit; the HTTP
// layer renders it as a structured 400.
type LimitError struct {
	What string // "constraint trees", "taxa"
	Got  int
	Max  int
}

func (e *LimitError) Error() string {
	return fmt.Sprintf("service: too many %s: %d exceeds the limit of %d", e.What, e.Got, e.Max)
}

// Job is one managed enumeration.
type Job struct {
	mu       sync.Mutex
	id       string
	num      int64  // numeric job serial (the "jobn" trace correlation key)
	reqID    string // originating HTTP request id, "" for direct submissions
	state    State
	req      JobRequest
	cons     []*gentrius.Tree
	ctx      context.Context
	cancel   context.CancelFunc
	spool    *spool
	res      *gentrius.Result
	err      error
	created  time.Time
	started  time.Time
	finished time.Time
	// ckptMu serializes the job's checkpoint writes — periodic, on-demand and
	// on-stop — and finish holds it until the job has left the running state,
	// so a checkpoint is written and recorded only while the job runs
	// (saveCheckpoint).
	ckptMu   sync.Mutex
	ckptPath string
	resume   *gentrius.Checkpoint // restart recovery: resume from here
	resumed  bool                 // job was recovered from the journal
	done     chan struct{}        // closed when the job reaches a terminal state
	// trigger requests on-demand snapshots from the running enumeration
	// (POST /jobs/{id}/checkpoint). Set when the job starts; nil before.
	trigger *gentrius.CheckpointTrigger

	// est is the job's own work estimator: the engine merges flushed
	// counters and leaf mass into it, giving the live per-job counters and
	// the fraction-complete estimate behind GET /jobs/{id}/stats. Lock-free;
	// read without j.mu.
	est       *obs.Estimator
	queueWait time.Duration // created→started, set when the job starts
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// Done is closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Status is the JSON-facing snapshot of a job.
type Status struct {
	ID              string  `json:"id"`
	RequestID       string  `json:"request_id,omitempty"`
	State           State   `json:"state"`
	ConstraintTrees int     `json:"constraint_trees"`
	Threads         int     `json:"threads"`
	TreesSpooled    int64   `json:"trees_spooled"`
	StandTrees      int64   `json:"stand_trees,omitempty"`
	Intermediate    int64   `json:"intermediate_states,omitempty"`
	DeadEnds        int64   `json:"dead_ends,omitempty"`
	StopReason      string  `json:"stop_reason,omitempty"`
	Complete        bool    `json:"complete"`
	Resumed         bool    `json:"resumed,omitempty"`
	ElapsedSeconds  float64 `json:"elapsed_seconds,omitempty"`
	Error           string  `json:"error,omitempty"`
	CheckpointFile  string  `json:"checkpoint_file,omitempty"`
	Created         string  `json:"created"`
	Started         string  `json:"started,omitempty"`
	Finished        string  `json:"finished,omitempty"`
}

// Status snapshots the job for reporting.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID:              j.id,
		RequestID:       j.reqID,
		State:           j.state,
		ConstraintTrees: len(j.cons),
		Threads:         max(j.req.Threads, 1),
		TreesSpooled:    j.spool.Lines(),
		Resumed:         j.resumed,
		Created:         j.created.Format(time.RFC3339Nano),
		CheckpointFile:  j.ckptPath,
	}
	if !j.started.IsZero() {
		st.Started = j.started.Format(time.RFC3339Nano)
	}
	if !j.finished.IsZero() {
		st.Finished = j.finished.Format(time.RFC3339Nano)
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	if j.res != nil {
		st.StandTrees = j.res.StandTrees
		st.Intermediate = j.res.IntermediateStates
		st.DeadEnds = j.res.DeadEnds
		st.StopReason = j.res.Stop.String()
		st.Complete = j.res.Complete()
		st.ElapsedSeconds = j.res.Elapsed.Seconds()
	}
	return st
}

// JobStats is the live observability snapshot behind GET /jobs/{id}/stats:
// the job's flushed engine counters, the online estimate of the fraction of
// its search space explored, and the ETA extrapolated from that estimate.
type JobStats struct {
	ID                 string  `json:"id"`
	State              State   `json:"state"`
	StandTrees         int64   `json:"stand_trees"`
	IntermediateStates int64   `json:"intermediate_states"`
	DeadEnds           int64   `json:"dead_ends"`
	TreesSpooled       int64   `json:"trees_spooled"`
	LeavesVisited      int64   `json:"leaves_visited"`
	FractionExplored   float64 `json:"fraction_explored"`
	ETASeconds         float64 `json:"eta_seconds,omitempty"`
	ElapsedSeconds     float64 `json:"elapsed_seconds,omitempty"`
	QueueWaitSeconds   float64 `json:"queue_wait_seconds,omitempty"`
}

// Stats snapshots the job's progress. For a running job the counters are
// the estimator's view (updated at every engine flush); once the job is
// terminal the engine's own totals take over.
func (j *Job) Stats() JobStats {
	j.mu.Lock()
	state := j.state
	res := j.res
	started := j.started
	finished := j.finished
	wait := j.queueWait
	j.mu.Unlock()

	st := JobStats{
		ID:                 j.id,
		State:              state,
		StandTrees:         j.est.Trees(),
		IntermediateStates: j.est.States(),
		DeadEnds:           j.est.DeadEnds(),
		TreesSpooled:       j.spool.Lines(),
		LeavesVisited:      j.est.Leaves(),
		FractionExplored:   j.est.Fraction(),
		QueueWaitSeconds:   wait.Seconds(),
	}
	var elapsed time.Duration
	switch {
	case !started.IsZero() && !finished.IsZero():
		elapsed = finished.Sub(started)
	case !started.IsZero():
		elapsed = time.Since(started)
	}
	st.ElapsedSeconds = elapsed.Seconds()
	if res != nil {
		st.StandTrees = res.StandTrees
		st.IntermediateStates = res.IntermediateStates
		st.DeadEnds = res.DeadEnds
		if res.Complete() {
			st.FractionExplored = 1
		}
		if res.Elapsed > 0 {
			st.ElapsedSeconds = res.Elapsed.Seconds()
		}
	}
	if state == StateRunning {
		if eta, ok := obs.EstimateETA(st.FractionExplored, elapsed); ok {
			st.ETASeconds = eta.Seconds()
		}
	}
	return st
}

// RecoveryStats summarizes what New found in the job journal.
type RecoveryStats struct {
	// Adopted is the number of finished jobs re-registered with their
	// spooled stands (no recomputation).
	Adopted int
	// Resumed is the number of mid-run jobs — serial or parallel —
	// requeued from their latest checkpoint.
	Resumed int
	// Requeued is the number of jobs that were still queued and restart
	// from scratch.
	Requeued int
	// Interrupted is the number of mid-run jobs with no usable checkpoint,
	// now terminal in state interrupted.
	Interrupted int
}

// Manager owns the job table and the worker pool.
type Manager struct {
	cfg     Config
	m       *Metrics
	ckpt    retry.Policy // m's policy for the "checkpoint" site
	jnl     *journal
	log     *slog.Logger
	trace   *obs.Recorder // the shared trace recorder (nil, and discarding, when tracing is off)
	mw      *Middleware
	started time.Time

	mu        sync.Mutex
	jobs      map[string]*Job
	order     []*Job // submission order, for stable listings
	nextID    int
	closed    bool          // Shutdown began: submissions get 503 + Retry-After
	pending   []*Job        // the jobs in state queued, in the order they got there
	work      *sync.Cond    // on mu: pending grew, or closed was set
	byState   map[State]int // how many jobs are in each state, for Health
	recovered RecoveryStats

	wg      sync.WaitGroup
	baseCtx context.Context
	stop    context.CancelFunc
}

// New starts a manager with cfg.Workers pool workers. If cfg.DataDir holds
// the journal of a previous run, its jobs are recovered first: see
// RecoveryStats.
func New(cfg Config) (*Manager, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 16
	}
	if cfg.MaxThreads <= 0 {
		cfg.MaxThreads = 1
	}
	if cfg.DataDir == "" {
		return nil, fmt.Errorf("service: Config.DataDir must be set")
	}
	if err := os.MkdirAll(cfg.DataDir, 0o755); err != nil {
		return nil, fmt.Errorf("service: data dir: %w", err)
	}
	if cfg.Metrics == nil {
		cfg.Metrics = &Metrics{}
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	jnl, records, err := openJournal(filepath.Join(cfg.DataDir, journalFile), cfg.Fault, cfg.Metrics)
	if err != nil {
		return nil, err
	}
	m := &Manager{
		cfg:     cfg,
		m:       cfg.Metrics,
		ckpt:    cfg.Metrics.RetryPolicy("checkpoint"),
		jnl:     jnl,
		log:     cfg.Logger,
		started: time.Now(),
		jobs:    map[string]*Job{},
		byState: map[State]int{},
	}
	m.work = sync.NewCond(&m.mu)
	// Minted request ids are "<runID>-<serial>": unique within a run by the
	// serial, across restarts by the start-time nonce.
	runID := fmt.Sprintf("r%08x", uint32(m.started.UnixNano()))
	if cfg.Sink != nil {
		m.trace = cfg.Sink.Trace
	}
	m.mw = NewMiddleware(cfg.Metrics.reg, cfg.Logger, m.trace, runID)
	m.baseCtx, m.stop = context.WithCancel(context.Background())
	m.replay(records)
	for i := 0; i < cfg.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	if m.recovered != (RecoveryStats{}) {
		m.log.Info("recovered previous run from journal",
			"adopted", m.recovered.Adopted,
			"resumed", m.recovered.Resumed,
			"requeued", m.recovered.Requeued,
			"interrupted", m.recovered.Interrupted)
	}
	return m, nil
}

// Health is the GET /healthz payload: process uptime, the job table by
// state, and the persistence dropped-write counters. Status degrades when
// any journal, spool or checkpoint write has ever been dropped — results
// may be incomplete or unresumable, and the operator should look at the
// data directory.
type Health struct {
	Status            string        `json:"status"` // "ok", "degraded" or "draining"
	Version           string        `json:"version"`
	Commit            string        `json:"commit"`
	UptimeSeconds     float64       `json:"uptime_seconds"`
	Jobs              map[State]int `json:"jobs"`
	JournalDropped    int64         `json:"journal_records_dropped"`
	SpoolDropped      int64         `json:"spool_lines_dropped"`
	CheckpointDropped int64         `json:"checkpoint_writes_dropped"`
	// Fleet reports this node's fleet role: a coordinator's peer count and
	// per-peer last-heartbeat ages plus running fleet-run trace ids, or a
	// plain worker's in-flight shard-lease count. Omitted when the node is
	// not wired into a fleet.
	Fleet *dist.FleetHealth `json:"fleet,omitempty"`
}

// Health snapshots the daemon's liveness view.
func (m *Manager) Health() Health {
	h := Health{
		Status:            "ok",
		Version:           buildinfo.Version,
		Commit:            buildinfo.Commit,
		UptimeSeconds:     time.Since(m.started).Seconds(),
		Jobs:              map[State]int{},
		JournalDropped:    m.m.JournalDropped.Value(),
		SpoolDropped:      m.m.SpoolDropped.Value(),
		CheckpointDropped: m.m.CheckpointDropped.Value(),
	}
	m.mu.Lock()
	for state, n := range m.byState {
		if n > 0 {
			h.Jobs[state] = n
		}
	}
	draining := m.closed
	m.mu.Unlock()
	if h.JournalDropped > 0 || h.SpoolDropped > 0 || h.CheckpointDropped > 0 {
		h.Status = "degraded"
	}
	switch {
	case m.cfg.Fleet != nil:
		h.Fleet = m.cfg.Fleet.Health()
		if m.cfg.FleetWorker != nil {
			// A coordinator is also a lease-accepting worker: report both.
			h.Fleet.ActiveShards = m.cfg.FleetWorker.ActiveShards()
		}
	case m.cfg.FleetWorker != nil:
		h.Fleet = m.cfg.FleetWorker.Health()
	}
	if draining {
		// Submissions are rejected with 503 + Retry-After while the daemon
		// drains; the status tells load balancers to stop routing work here.
		h.Status = "draining"
	}
	return h
}

// Recovery reports what New recovered from the previous run's journal.
func (m *Manager) Recovery() RecoveryStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.recovered
}

// replay rebuilds the job table from the journal records, in original
// submission order. Called from New before the workers start.
func (m *Manager) replay(records []journalRecord) {
	type entry struct {
		req   *JobRequest
		reqID string        // originating HTTP request id, if journaled
		last  journalRecord // latest state record
	}
	byID := map[string]*entry{}
	var order []string
	for _, rec := range records {
		switch rec.Op {
		case "submit":
			if rec.Req == nil || byID[rec.ID] != nil {
				continue
			}
			byID[rec.ID] = &entry{req: rec.Req, reqID: rec.ReqID,
				last: journalRecord{State: StateQueued, Time: rec.Time}}
			order = append(order, rec.ID)
		case "state":
			if e := byID[rec.ID]; e != nil && rec.State != "" {
				e.last = rec
			}
		}
	}

	for _, id := range order {
		e := byID[id]
		var n int
		if _, err := fmt.Sscanf(id, "j%d", &n); err == nil && n > m.nextID {
			m.nextID = n
		}
		m.recoverJob(id, int64(n), e.req, e.reqID, e.last)
	}
}

// recoverJob reconstructs one journaled job and re-enacts the journal's last
// word on it. No journaled job vanishes from the job table: one whose spool
// cannot be reopened is registered as interrupted, carrying the spool error.
func (m *Manager) recoverJob(id string, num int64, req *JobRequest, reqID string, last journalRecord) {
	wasTerminal := terminal(last.State)
	spoolPath := filepath.Join(m.cfg.DataDir, id+".trees")
	sp, spErr := adoptSpool(spoolPath, wasTerminal, m.cfg.Fault, m.m)
	if spErr != nil {
		// Stand in a closed, empty spool so Status and streaming stay
		// well-defined; the job goes terminal with the error below.
		sp = &spool{path: spoolPath, closed: true, m: m.m}
		sp.cond = sync.NewCond(&sp.mu)
	}
	job := m.newJob(&Job{id: id, num: num, reqID: reqID, req: *req, spool: sp, resumed: true})
	if t, err := time.Parse(time.RFC3339Nano, last.Time); err == nil {
		job.created = t
	}
	ckptPath := filepath.Join(m.cfg.DataDir, id+".ckpt")

	var why error // why the job cannot go on
	switch {
	case spErr != nil:
		why = fmt.Errorf("spool unusable: %w", spErr)
	case wasTerminal:
		out := outcome{journaled: true}
		if last.Error != "" {
			out.err = errors.New(last.Error)
		}
		if last.Stop != "" {
			out.res = &gentrius.Result{
				StandTrees:         last.StandTrees,
				IntermediateStates: last.States,
				DeadEnds:           last.DeadEnds,
				Stop:               parseStop(last.Stop),
				Threads:            max(req.Threads, 1),
			}
			// Seed the estimator so the adopted job's /stats reports its
			// journaled totals and leaves (fraction 1 if complete).
			job.est.AddCounters(out.res.StandTrees, out.res.IntermediateStates, out.res.DeadEnds)
			if out.res.Complete() {
				job.est.AddLeafMass(1, out.res.StandTrees+out.res.DeadEnds)
			}
		}
		if _, err := os.Stat(ckptPath); err == nil {
			job.ckptPath = ckptPath
		}
		m.transition(job, stateNone, last.State, out)
		m.recovered.Adopted++
		return
	default:
		// The request was journaled before it ever ran, so it parsed once;
		// re-parse without the size limits (tightening limits must not
		// strand previously accepted work).
		cons, err := parseRequest(*req)
		job.cons = cons
		switch {
		case err != nil:
			why = fmt.Errorf("request no longer parses: %w", err)
		case last.State == StateQueued:
			m.transition(job, stateNone, StateQueued, outcome{journaled: true})
			m.recovered.Requeued++
			return
		case last.State == StateRunning:
			// Any thread count resumes from the job's task frontier, at
			// whatever thread count the recovered request asks for. A file
			// this release cannot read (ErrVersion: an older release's
			// serial frame stack) leaves the job interrupted.
			if cp, err := gentrius.ReadCheckpointFile(ckptPath); err == nil {
				job.resume = cp
				job.ckptPath = ckptPath
				m.transition(job, stateNone, StateQueued, outcome{journaled: true})
				m.recovered.Resumed++
				return
			}
		}
		if why == nil {
			why = errors.New("no usable checkpoint; resubmit to rerun")
		}
	}
	// Terminal, and journaled as such so the next restart adopts it directly.
	m.transition(job, stateNone, StateInterrupted,
		outcome{err: fmt.Errorf("service: restart recovery: %w", why)})
	m.recovered.Interrupted++
}

// parseStop maps a journaled stop-reason string back to the typed value.
func parseStop(s string) gentrius.StopReason {
	for _, r := range []gentrius.StopReason{
		gentrius.StopExhausted, gentrius.StopTreeLimit, gentrius.StopStateLimit,
		gentrius.StopTimeLimit, gentrius.StopCancelled, gentrius.StopFailed,
	} {
		if r.String() == s {
			return r
		}
	}
	var zero gentrius.StopReason
	return zero
}

// parseRequest validates and compiles the request's input mode into
// constraint trees.
func parseRequest(req JobRequest) ([]*gentrius.Tree, error) {
	switch {
	case len(req.Trees) > 0 && req.Species == "" && req.PAM == "":
		return tree.ReadLines(req.Trees)
	case req.Species != "" && req.PAM != "" && len(req.Trees) == 0:
		trees, taxa, err := gentrius.ReadTrees(strings.NewReader(req.Species), nil)
		if err != nil {
			return nil, err
		}
		if len(trees) != 1 {
			return nil, fmt.Errorf("species input must contain exactly one tree, found %d", len(trees))
		}
		pm, err := gentrius.ReadPAM(strings.NewReader(req.PAM), taxa)
		if err != nil {
			return nil, err
		}
		if err := pm.Validate(); err != nil {
			return nil, err
		}
		return pm.InducedConstraints(trees[0], 4)
	default:
		return nil, fmt.Errorf("provide either trees, or species together with pam")
	}
}

// checkRequest applies the daemon's size limits on top of parseRequest.
func (m *Manager) checkRequest(req JobRequest) ([]*gentrius.Tree, error) {
	cons, err := parseRequest(req)
	if err != nil {
		return nil, err
	}
	if max := m.cfg.MaxConstraintTrees; max > 0 && len(cons) > max {
		return nil, &LimitError{What: "constraint trees", Got: len(cons), Max: max}
	}
	if max := m.cfg.MaxTaxa; max > 0 && len(cons) > 0 {
		if n := cons[0].Taxa().Len(); n > max {
			return nil, &LimitError{What: "taxa", Got: n, Max: max}
		}
	}
	return cons, nil
}

// jobTags builds the job's trace correlation tags: always the job id, plus
// the originating request id when the job came in over HTTP.
func (j *Job) jobTags() []obs.SField {
	tags := []obs.SField{obs.S("job", j.id)}
	if j.reqID != "" {
		tags = append(tags, obs.S("req", j.reqID))
	}
	return tags
}

// Submit validates the request, registers the job and enqueues it. The
// returned job is already visible to Get/List in state queued, and its
// submission is journaled before Submit returns.
func (m *Manager) Submit(req JobRequest) (*Job, error) {
	return m.SubmitWithRequest(req, "", 0)
}

// SubmitWithRequest is Submit carrying the originating HTTP request's id
// and serial, which flow into the journal, the per-job metric labels, the
// job lifecycle logs and the job-submit trace span — the request→job leg of
// the correlation chain.
func (m *Manager) SubmitWithRequest(req JobRequest, reqID string, reqSerial int64) (*Job, error) {
	cons, err := m.checkRequest(req)
	if err != nil {
		return nil, err
	}
	if req.Threads > m.cfg.MaxThreads {
		req.Threads = m.cfg.MaxThreads
	}

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, ErrShuttingDown
	}
	// QueueCap bounds the jobs Submit put in the queue; recovered ones,
	// which sit ahead of them, never count against it.
	waiting := 0
	for _, j := range m.pending {
		if !j.resumed {
			waiting++
		}
	}
	if waiting >= m.cfg.QueueCap {
		m.mu.Unlock()
		return nil, ErrQueueFull
	}
	m.nextID++
	id := fmt.Sprintf("j%06d", m.nextID)
	sp, err := newSpool(filepath.Join(m.cfg.DataDir, id+".trees"), m.cfg.Fault, m.m)
	if err != nil {
		m.mu.Unlock()
		return nil, err
	}
	job := m.newJob(&Job{id: id, num: int64(m.nextID), reqID: reqID, req: req, cons: cons, spool: sp})
	// The submit record is durable before the job can be seen or run, so no
	// state record of the job precedes it in the journal; and the capacity
	// check, the record and the queue are one critical section, so two
	// submissions cannot share the last slot and none lands behind Shutdown.
	m.jnl.append(journalRecord{Op: "submit", ID: id, Req: &req, ReqID: reqID})
	publish := m.move(job, stateNone, StateQueued, outcome{journaled: true})
	m.mu.Unlock()
	publish()
	m.trace.EmitTagged(obs.EvJobSubmit, -1, job.jobTags(),
		obs.F("jobn", job.num), obs.F("reqn", reqSerial))
	attrs := []any{"job", id, "constraints", len(cons), "threads", max(req.Threads, 1)}
	if reqID != "" {
		attrs = append(attrs, "req", reqID)
	}
	m.log.Info("job accepted", attrs...)
	return job, nil
}

// Get returns a job by id.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// List returns every job in submission order.
func (m *Manager) List() []*Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	return slices.Clone(m.order)
}

// Cancel cancels a job. A queued job leaves the queue and terminates at once;
// a running job stops with StopCancelled within one stopping-rule check
// interval (and, when checkpointing is on, leaves a resumable snapshot).
func (m *Manager) Cancel(id string) bool {
	j, ok := m.Get(id)
	if !ok {
		return false
	}
	j.cancel()
	m.log.Info("job cancel requested", "job", id)
	// Refused unless the job is still queued: a worker that popped it first
	// runs it into the cancelled context and reports how that ended.
	m.transition(j, StateQueued, StateCancelled, outcome{})
	return true
}

// worker runs queued jobs, oldest first, until Shutdown.
func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		m.mu.Lock()
		for len(m.pending) == 0 && !m.closed {
			m.work.Wait()
		}
		if m.closed {
			m.mu.Unlock()
			return
		}
		job := m.pending[0]
		publish := m.move(job, StateQueued, StateRunning, outcome{})
		m.mu.Unlock()
		publish()
		m.runJob(job)
	}
}

// runJob executes a job in state running on the calling pool worker.
func (m *Manager) runJob(job *Job) {
	job.mu.Lock()
	req := job.req
	resume := job.resume
	job.resume = nil
	job.mu.Unlock()

	maxTime := m.clampTime(time.Duration(req.MaxTimeSeconds * float64(time.Second)))
	if m.cfg.Fleet != nil && resume == nil {
		// The coordinator checks the tree and state limits at shard merges
		// and MaxTime on its clock.
		fres, err := m.cfg.Fleet.Run(job.ctx, job.id, job.cons, search.Options{
			OnTrees:     job.spool.AppendBlock, // the workers' blocks, shard by shard as they merge
			InitialTree: gentrius.UseInitialTreeHeuristic,
			Limits:      search.Limits{MaxTrees: req.MaxTrees, MaxStates: req.MaxStates, MaxTime: maxTime},
		})
		var res *gentrius.Result
		if err == nil {
			r := &fres.Result
			res = &gentrius.Result{StandTrees: r.StandTrees, IntermediateStates: r.IntermediateStates,
				DeadEnds: r.DeadEnds, Stop: r.Stop, Elapsed: r.Elapsed, InitialIndex: r.InitialIndex}
		}
		m.finish(job, res, err)
		return
	}

	// The job's sink shares the daemon-wide engine metrics and trace but
	// owns its estimator, so /jobs/{id}/stats sees only this job's mass.
	sink := &gentrius.ObsSink{Estimate: job.est}
	if s := m.cfg.Sink; s != nil {
		sink.Metrics = s.Metrics
		sink.Trace = s.Trace
	}

	// Every job gets an on-demand checkpoint trigger (POST
	// /jobs/{id}/checkpoint); the rest of the policy follows the daemon
	// configuration. Parallel jobs use the same policy — their snapshots
	// are quiesced task frontiers, resumable at any thread count.
	policy := &gentrius.CheckpointPolicy{
		OnStop:   m.cfg.Checkpoint,
		Interval: m.cfg.CheckpointInterval,
		Resume:   resume,
		Trigger:  gentrius.NewCheckpointTrigger(),
	}
	if policy.Interval > 0 {
		policy.Sink = func(cp *gentrius.Checkpoint) {
			job.ckptMu.Lock()
			defer job.ckptMu.Unlock()
			m.saveCheckpoint(job, cp) //nolint:errcheck // the next interval's snapshot supersedes it
		}
	}
	job.mu.Lock()
	job.trigger = policy.Trigger
	job.mu.Unlock()

	opt := gentrius.Options{
		Threads:     req.Threads,
		MaxTrees:    req.MaxTrees,
		MaxStates:   req.MaxStates,
		MaxTime:     maxTime,
		InitialTree: gentrius.UseInitialTreeHeuristic,
		Obs:         sink,
		Fault:       m.cfg.Fault,
		Checkpoint:  policy,
		OnTrees:     job.spool.AppendBlock, // a block goes to the spool as it is, with one write
	}
	res, err := gentrius.EnumerateStandContext(job.ctx, job.cons, opt)
	m.finish(job, res, err)
}

// RequestCheckpoint asks a running job for an on-demand snapshot, persists
// it next to the job's spool and returns the checkpoint path. It fails when
// the job is not running (ErrNotRunning) or when the run ends before the
// request is serviced.
func (m *Manager) RequestCheckpoint(ctx context.Context, id string) (string, error) {
	j, ok := m.Get(id)
	if !ok {
		return "", ErrUnknownJob
	}
	j.mu.Lock()
	trigger := j.trigger
	running := j.state == StateRunning
	j.mu.Unlock()
	if !running || trigger == nil {
		return "", ErrNotRunning
	}
	cp, err := trigger.Request(ctx)
	if err != nil {
		return "", err
	}
	j.ckptMu.Lock()
	defer j.ckptMu.Unlock()
	path, err := m.saveCheckpoint(j, cp)
	if err != nil {
		return "", err
	}
	m.log.Info("on-demand checkpoint written", "job", id, "path", path)
	return path, nil
}

// saveCheckpoint persists cp as the job's checkpoint and records its path,
// if the job is still running (else ErrNotRunning: the run has ended, and
// finish has kept or deleted what it left). The caller holds job.ckptMu.
func (m *Manager) saveCheckpoint(job *Job, cp *gentrius.Checkpoint) (string, error) {
	job.mu.Lock()
	running := job.state == StateRunning
	job.mu.Unlock()
	if !running {
		return "", ErrNotRunning
	}
	path, ok := m.writeCheckpointRetry(job.id, cp)
	if !ok {
		return "", fmt.Errorf("service: checkpoint write failed after retries")
	}
	job.mu.Lock()
	job.ckptPath = path
	job.mu.Unlock()
	return path, nil
}

// clampTime applies the daemon's wall-time cap to a job's requested limit.
func (m *Manager) clampTime(d time.Duration) time.Duration {
	if m.cfg.MaxTime <= 0 {
		return d
	}
	if d <= 0 || d > m.cfg.MaxTime {
		return m.cfg.MaxTime
	}
	return d
}

// writeCheckpointRetry persists cp atomically next to the job's spool,
// retrying transient failures. It reports the checkpoint path on success.
func (m *Manager) writeCheckpointRetry(id string, cp *gentrius.Checkpoint) (string, bool) {
	path := filepath.Join(m.cfg.DataDir, id+".ckpt")
	err := m.ckpt.Do(nil, func() error {
		if err := m.cfg.Fault.Err(faultinject.CheckpointWrite, "write"); err != nil {
			return err
		}
		return cp.WriteFile(path)
	})
	if err != nil {
		m.m.CheckpointDropped.Inc()
		m.log.Warn("checkpoint write dropped after retries", "job", id, "error", err.Error())
		return "", false
	}
	m.m.CheckpointWrites.Inc()
	return path, true
}

// finish ends a job its worker ran: it decides which terminal state the
// result amounts to, persists the checkpoint the run captured and names the
// one the move makes obsolete.
func (m *Manager) finish(job *Job, res *gentrius.Result, err error) {
	to := StateDone
	switch {
	case err != nil:
		to = StateFailed
	case res == nil || res.Stop == gentrius.StopCancelled:
		to = StateCancelled
	}
	// No checkpoint write of the job lands between this one and the move.
	job.ckptMu.Lock()
	defer job.ckptMu.Unlock()
	if res != nil && res.Checkpoint != nil {
		m.saveCheckpoint(job, res.Checkpoint) //nolint:errcheck // a dropped write is counted and logged
	}
	job.mu.Lock()
	out := outcome{res: res, err: err}
	if res != nil && res.Complete() && job.ckptPath != "" {
		// The stand is fully enumerated; the periodic checkpoint (and its
		// .bak rotation) is obsolete and must not be offered for
		// resumption.
		out.staleCkpt = job.ckptPath
		job.ckptPath = ""
	}
	job.mu.Unlock()
	m.transition(job, StateRunning, to, out)
}

// outcome is what a move records beside the new state.
type outcome struct {
	// How the run ended: a terminal move keeps it on the job and summarises
	// it in the journal record.
	res *gentrius.Result
	err error
	// staleCkpt is deleted, with its .bak rotation, once the move's record is
	// durable and before done closes: a crash in between must not leave a
	// running-state journal whose replay resumes the finished job from it.
	staleCkpt string
	// journaled: the journal holds this move's record already (New replays
	// it, Submit appends it first), so none is appended, nothing is counted
	// again, and a terminal state's finish time is that record's.
	journaled bool
}

// newJob completes a job that has its identity, request and spool; the job
// is in no state until its first transition.
func (m *Manager) newJob(job *Job) *Job {
	job.created = time.Now()
	job.done = make(chan struct{})
	job.est = &obs.Estimator{}
	job.ctx, job.cancel = context.WithCancel(m.baseCtx)
	return job
}

// transition moves job from one state to another if lifecycle allows the
// move and the job is in state from; otherwise it changes nothing and
// reports false: a Cancel that lost to a pool worker, a second terminal move.
func (m *Manager) transition(job *Job, from, to State, out outcome) bool {
	m.mu.Lock()
	publish := m.move(job, from, to, out)
	m.mu.Unlock()
	if publish == nil {
		return false
	}
	publish()
	return true
}

// move is transition with m.mu held, and the only writer of job.state, the
// job table and the queue. It applies what a move changes in memory and
// returns what remains to be done once m.mu is released (nil for a refused
// move): append the state record, and only then close the spool and done of
// a job that became terminal.
func (m *Manager) move(job *Job, from, to State, out outcome) (publish func()) {
	job.mu.Lock()
	if job.state != from || !slices.Contains(lifecycle[from], to) {
		job.mu.Unlock()
		return nil
	}
	now := time.Now()
	if out.journaled {
		now = job.created // the time of the journal's last record of the job
	}
	job.state = to
	var wait, ran time.Duration
	switch {
	case to == StateRunning:
		wait = now.Sub(job.created)
		job.started, job.queueWait = now, wait
	case terminal(to):
		job.res, job.err, job.finished = out.res, out.err, now
		if !job.started.IsZero() {
			ran = now.Sub(job.started)
		}
	}
	resuming := job.resume != nil
	job.mu.Unlock()

	switch from {
	case stateNone:
		m.jobs[job.id] = job
		m.order = append(m.order, job)
	case StateQueued:
		i := slices.Index(m.pending, job)
		m.pending = slices.Delete(m.pending, i, i+1)
	}
	if to == StateQueued {
		m.pending = append(m.pending, job)
		m.work.Signal()
	}
	if from != stateNone {
		m.byState[from]--
	}
	m.byState[to]++
	m.m.JobsQueued.Set(int64(m.byState[StateQueued]))
	m.m.JobsRunning.Set(int64(m.byState[StateRunning]))

	return func() {
		if !out.journaled {
			rec := journalRecord{Op: "state", ID: job.id, State: to}
			if out.err != nil {
				rec.Error = out.err.Error()
			}
			if out.res != nil {
				rec.Stop = out.res.Stop.String()
				rec.StandTrees = out.res.StandTrees
				rec.States = out.res.IntermediateStates
				rec.DeadEnds = out.res.DeadEnds
			}
			m.jnl.append(rec)
			switch to {
			case StateRunning:
				m.m.QueueWait.Observe(wait.Seconds())
			case StateDone:
				m.m.JobsDone.Inc()
			case StateCancelled:
				m.m.JobsCancelled.Inc()
			case StateFailed:
				m.m.JobsFailed.Inc()
			case StateInterrupted:
				m.m.JobsInterrupted.Inc()
			}
			if ran > 0 {
				m.m.ExecTime.Observe(ran.Seconds())
			}
		}
		if out.staleCkpt != "" {
			os.Remove(out.staleCkpt)
			os.Remove(out.staleCkpt + ".bak")
		}
		if terminal(to) {
			job.spool.Close()
			close(job.done)
		}
		if from == stateNone {
			return // Submit and New report what they took in themselves
		}
		attrs := []any{"job", job.id}
		if job.reqID != "" {
			attrs = append(attrs, "req", job.reqID)
		}
		if to == StateRunning {
			m.trace.EmitTagged(obs.EvJobStart, -1, job.jobTags(), obs.F("jobn", job.num))
			m.log.Info("job started", append(attrs,
				"queue_wait_seconds", wait.Seconds(), "resume", resuming)...)
			return
		}
		endFields := []obs.Field{obs.F("jobn", job.num)}
		attrs = append(attrs, "state", string(to), "exec_seconds", ran.Seconds())
		if out.res != nil {
			endFields = append(endFields, obs.F("trees", out.res.StandTrees))
			attrs = append(attrs, "stand_trees", out.res.StandTrees, "stop", out.res.Stop.String())
		}
		m.trace.EmitTagged(obs.EvJobEnd, -1,
			append(job.jobTags(), obs.S("state", string(to))), endFields...)
		if out.err != nil {
			m.log.Error("job finished", append(attrs, "error", out.err.Error())...)
		} else {
			m.log.Info("job finished", attrs...)
		}
	}
}

// Shutdown stops accepting jobs, cancels every queued and running job and
// waits (bounded by ctx) for the pool to drain. In-flight jobs, at any
// thread count, checkpoint before exiting when Config.Checkpoint is set, so
// a restarted daemon — or the gentrius CLI with -resume — can pick the work
// back up.
func (m *Manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	queued := slices.Clone(m.pending)
	m.work.Broadcast()
	m.mu.Unlock()
	m.log.Info("shutting down", "uptime_seconds", time.Since(m.started).Seconds())
	m.stop() // cancels every job context derived from baseCtx
	for _, job := range queued {
		m.transition(job, StateQueued, StateCancelled, outcome{})
	}

	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		m.jnl.close()
		return nil
	case <-ctx.Done():
		return fmt.Errorf("service: shutdown grace period exceeded: %w", ctx.Err())
	}
}
