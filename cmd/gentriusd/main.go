// Command gentriusd is the Gentrius enumeration daemon: a long-running HTTP
// service that accepts stand-enumeration jobs (Newick constraint trees, or
// a species tree plus a PAM), runs them on a bounded worker pool, streams
// stand trees to subscribers as NDJSON, and supports cancellation and
// graceful shutdown. Jobs interrupted by a cancel or by shutdown — serial
// or parallel — write a resumable checkpoint into the data directory
// (parallel jobs snapshot their quiesced task frontier).
//
// Endpoints (see internal/service):
//
//	POST   /jobs             submit {"trees": ["...;", ...], "threads": N, ...}
//	GET    /jobs             list jobs
//	GET    /jobs/{id}        job status
//	GET    /jobs/{id}/trees  NDJSON tree stream (follows a running job)
//	POST   /jobs/{id}/cancel cancel a job
//	POST   /jobs/{id}/checkpoint  snapshot a running job on demand
//	GET    /jobs/{id}/checkpoint  download the latest checkpoint envelope
//	GET    /healthz          liveness ("ok", "degraded", or "draining" during shutdown)
//	GET    /metrics          Prometheus metrics (plus /debug/pprof)
//	POST   /v1/shards        fleet protocol: lease a shard to this worker
//	POST   /v1/shards/heartbeat  fleet protocol: renew a lease (coordinator only)
//	POST   /v1/shards/result     fleet protocol: merge a shard result (coordinator only)
//	GET    /v1/fleet/status  live fleet topology: per-peer liveness and
//	                         per-shard lease/epoch/estimator state (coordinator only)
//
// Fleet mode: every gentriusd accepts shard leases on /v1/shards, so any
// instance can serve as a fleet worker. Starting one with -fleet
// url1,url2,... makes it a coordinator: submitted jobs are split into
// frontier shards, leased to the peers, kept alive by heartbeats, and
// merged exactly-once; a worker that dies mid-shard is detected by lease
// expiry and its shard re-dispatched from its last durable checkpoint (see
// internal/dist).
//
// SIGINT/SIGTERM trigger graceful shutdown: no new jobs (further POST
// /jobs get 503 + Retry-After while /healthz reports "draining"), every
// running job is cancelled (checkpointing at any thread count), and the
// process exits 0 once the pool drains or the grace period ends.
//
// Crash recovery: job submissions and state transitions are journaled to
// <data-dir>/journal.ndjson, and -checkpoint-interval makes running jobs
// checkpoint on a wall-clock cadence at any thread count. Restarting the daemon with the
// same -data-dir after a crash (even SIGKILL) re-adopts finished jobs,
// resumes interrupted jobs — serial or parallel — from their latest
// checkpoint, and requeues jobs that never started. GENTRIUS_FAULTS (see
// internal/faultinject) injects deterministic faults for recovery drills.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"gentrius"
	"gentrius/internal/buildinfo"
	"gentrius/internal/dist"
	"gentrius/internal/faultinject"
	"gentrius/internal/obs"
	"gentrius/internal/service"
)

// registerMetrics registers what the daemon exports on /metrics, all of it
// but the per-route HTTP families service.New adds: the set that
// internal/obs/CATALOGUE.md lists and TestCatalogue compares with it.
func registerMetrics(reg *obs.Registry, maxThreads int) (*service.Metrics, *obs.SchedMetrics, *dist.Metrics) {
	sched := obs.NewSchedMetrics(reg)
	// Per-worker engine counters are registered once, up front: concurrent
	// jobs then only read the worker table (EnsureWorkers is a no-op).
	sched.EnsureWorkers(maxThreads)
	return service.NewMetrics(reg), sched, dist.NewMetrics(reg)
}

func main() {
	var (
		addr       = flag.String("addr", ":8080", "HTTP listen address")
		jobs       = flag.Int("jobs", 2, "jobs run concurrently; further jobs queue")
		queueCap   = flag.Int("queue", 16, "queued-job capacity before submissions are rejected")
		dataDir    = flag.String("data-dir", "", "directory for tree spools, checkpoints and the job journal (default: a fresh temp dir); reuse it to recover jobs after a restart")
		maxThreads = flag.Int("max-threads", 1, "cap on a job's requested thread count")
		maxTime    = flag.Duration("max-job-time", 0, "cap on a job's wall-time limit (0 = engine default of 168h)")
		noCkpt     = flag.Bool("no-checkpoint", false, "disable checkpoint-on-stop")
		ckptIvl    = flag.Duration("checkpoint-interval", 0, "checkpoint running jobs on this wall-clock cadence, at any thread count (0 = only on stop); required for crash resumption")
		maxBody    = flag.Int64("max-body", 8<<20, "POST /jobs body size limit in bytes (0 = unlimited)")
		maxTaxa    = flag.Int("max-taxa", 0, "reject jobs whose taxon universe is larger (0 = unlimited)")
		maxCons    = flag.Int("max-constraints", 0, "reject jobs with more constraint trees (0 = unlimited)")
		readTO     = flag.Duration("read-timeout", 30*time.Second, "HTTP request read timeout (0 = none)")
		writeTO    = flag.Duration("write-timeout", 60*time.Second, "HTTP response write timeout; tree streams extend it per write (0 = none)")
		grace      = flag.Duration("shutdown-grace", 30*time.Second, "graceful-shutdown budget")
		logLevel   = flag.String("log-level", "info", "structured log level: debug, info, warn or error")
		traceOut   = flag.String("trace-out", "", "write a JSONL serving+scheduler trace to this file (analyze with cmd/obsreport)")
		fleet      = flag.String("fleet", "", "comma-separated peer gentriusd base URLs; when set, this instance coordinates: submitted jobs are split into shards, leased to the fleet, and merged exactly-once")
		coordURL   = flag.String("coord-url", "", "advertised base URL fleet workers use to reach this coordinator (default: http://<listen addr>)")
		leaseTTL   = flag.Duration("lease-ttl", dist.DefaultLeaseTTL, "fleet shard lease TTL; a shard silent for this long is re-dispatched from its last checkpoint")
		hbEvery    = flag.Duration("heartbeat-every", dist.DefaultHeartbeatEvery, "fleet worker heartbeat/checkpoint cadence (must be well under -lease-ttl)")
		fleetShard = flag.Int("fleet-shards", 0, "shards per fleet job (0 = 2x the peer count)")
		version    = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()

	if *version {
		fmt.Println("gentriusd", buildinfo.String())
		return
	}

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fatal(fmt.Errorf("-log-level: %w", err))
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	if *dataDir == "" {
		d, err := os.MkdirTemp("", "gentriusd-")
		if err != nil {
			fatal(err)
		}
		*dataDir = d
	}

	fault, err := faultinject.FromEnv()
	if err != nil {
		fatal(fmt.Errorf("%s: %w", faultinject.EnvVar, err))
	}
	if fault != nil {
		logger.Warn("fault injection active", "env", faultinject.EnvVar, "seed", fault.Seed())
	}

	reg := obs.NewRegistry()
	metrics, sched, distMetrics := registerMetrics(reg, *maxThreads)

	// One wall-clock recorder is shared by the HTTP middleware, the job
	// lifecycle and the engine schedulers, so a single Perfetto view spans
	// request arrival → queue wait → job execution → worker task spans.
	var trace *obs.Recorder
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(fmt.Errorf("-trace-out: %w", err))
		}
		trace = obs.NewRecorder(f, obs.WallClock(time.Now()))
	}

	// The listener opens before the manager so fleet mode can default the
	// advertised coordinator URL to the real bound address.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}

	// Every gentriusd is a fleet worker: peers can lease shards to it via
	// POST /v1/shards whether or not this instance also coordinates.
	worker := dist.NewWorker(dist.WorkerConfig{
		Name:    ln.Addr().String(),
		Threads: *maxThreads,
		Retry:   metrics.RetryPolicy("shardrpc"),
		Metrics: distMetrics,
		Trace:   trace,
		Logger:  logger,
		Fault:   fault,
		Dial: func(url string) dist.CoordinatorClient {
			return dist.NewHTTPClient(url, 0)
		},
	})
	var coord *dist.Coordinator
	if *fleet != "" {
		var peers []dist.WorkerClient
		for _, u := range strings.Split(*fleet, ",") {
			if u = strings.TrimSpace(u); u != "" {
				peers = append(peers, dist.NewHTTPClient(u, 0))
			}
		}
		cu := *coordURL
		if cu == "" {
			cu = "http://" + ln.Addr().String()
		}
		coord = dist.NewCoordinator(dist.Config{
			Peers:          peers,
			CoordURL:       cu,
			Shards:         *fleetShard,
			LeaseTTL:       *leaseTTL,
			HeartbeatEvery: *hbEvery,
			Threads:        *maxThreads,
			Retry:          metrics.RetryPolicy("shardrpc"),
			Metrics:        distMetrics,
			Trace:          trace,
			Logger:         logger,
			Fault:          fault,
		})
		logger.Info("fleet coordinator enabled", "peers", len(peers), "coord_url", cu,
			"lease_ttl", leaseTTL.String(), "heartbeat_every", hbEvery.String())
	}

	mgr, err := service.New(service.Config{
		Workers:            *jobs,
		QueueCap:           *queueCap,
		DataDir:            *dataDir,
		MaxThreads:         *maxThreads,
		MaxTime:            *maxTime,
		Checkpoint:         !*noCkpt,
		CheckpointInterval: *ckptIvl,
		MaxConstraintTrees: *maxCons,
		MaxTaxa:            *maxTaxa,
		MaxBodyBytes:       *maxBody,
		Fault:              fault,
		Fleet:              coord,
		FleetWorker:        worker,
		Metrics:            metrics,
		Sink:               &gentrius.ObsSink{Metrics: sched, Trace: trace},
		Logger:             logger,
	})
	if err != nil {
		fatal(err)
	}

	// /metrics goes through the same middleware as the job API, so scrape
	// latency shows up in the per-route families too; the debug endpoints
	// stay unwrapped (a 30 s pprof profile is not a request latency).
	mux := http.NewServeMux()
	mux.Handle("GET /metrics", mgr.Middleware().Wrap("metrics", obs.MetricsHandler(reg)))
	obs.RegisterDebug(mux)
	mgr.RegisterRoutes(mux)
	mux.Handle("/v1/shards", mgr.Middleware().Wrap("shards", dist.WorkerHandler(worker).ServeHTTP))
	if coord != nil {
		mux.Handle("/v1/shards/", mgr.Middleware().Wrap("shards_coord", dist.CoordinatorHandler(coord).ServeHTTP))
		// Live fleet topology: the same picture obsreport reconstructs
		// post-hoc from the nodes' traces, as one JSON snapshot.
		mux.Handle("GET /v1/fleet/status", mgr.Middleware().Wrap("fleet_status", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			enc.Encode(coord.Status()) //nolint:errcheck // client gone is not actionable
		}))
	}
	srv := &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       *readTO,
		WriteTimeout:      *writeTO,
	}
	go func() {
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			fatal(err)
		}
	}()
	logger.Info("listening", "addr", ln.Addr().String(), "data_dir", *dataDir,
		"workers", *jobs, "version", buildinfo.Version, "commit", buildinfo.Commit)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	stop()
	logger.Info("signal received: shutting down (cancelling jobs, checkpointing interrupted runs)")

	graceCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	// Jobs first: cancelling them closes the spools, which ends the NDJSON
	// streams, which lets the HTTP server drain its connections.
	if err := mgr.Shutdown(graceCtx); err != nil {
		logger.Error("shutdown", "error", err.Error())
	}
	// Fleet shards leased to this worker are cancelled; their coordinator
	// re-dispatches them elsewhere after the lease expires.
	worker.Shutdown()
	if err := srv.Shutdown(graceCtx); err != nil {
		srv.Close()
	}
	for _, j := range mgr.List() {
		if st := j.Status(); st.CheckpointFile != "" {
			logger.Info("job checkpointed; resume with gentrius -resume",
				"job", st.ID, "checkpoint", st.CheckpointFile)
		}
	}
	if trace != nil {
		if err := trace.Close(); err != nil {
			logger.Error("closing trace", "error", err.Error())
		} else {
			logger.Info("trace written", "path", *traceOut, "events", trace.Events())
		}
	}
	logger.Info("bye")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gentriusd:", err)
	os.Exit(1)
}
