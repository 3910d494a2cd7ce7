package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gentrius"
	"gentrius/internal/obs"
	"gentrius/internal/service"
)

// daemon is an in-process gentriusd: the service manager behind its HTTP
// routes on a loopback port, configured as cmd/gentriusd configures it
// (metrics registry on, trace off) with one job worker and two threads.
type daemon struct {
	mgr *service.Manager
	srv *http.Server
	url string
	dir string
}

// startDaemon brings a daemon up on a fresh data directory and returns
// once /healthz answers 200: what a user waits for before the first job.
func startDaemon(dir string) (*daemon, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	sched := obs.NewSchedMetrics(reg)
	sched.EnsureWorkers(2)
	mgr, err := service.New(service.Config{
		Workers: 1, QueueCap: 16, DataDir: dir, MaxThreads: 2,
		Checkpoint: true, MaxBodyBytes: 8 << 20,
		Metrics: service.NewMetrics(reg),
		Sink:    &gentrius.ObsSink{Metrics: sched},
	})
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mgr.RegisterRoutes(mux)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{
		mgr: mgr, dir: dir, url: "http://" + ln.Addr().String(),
		srv: &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second,
			ReadTimeout: 30 * time.Second, WriteTimeout: 60 * time.Second},
	}
	go d.srv.Serve(ln) //nolint:errcheck // ends with ErrServerClosed at stop
	// No keep-alive: the probe's connection must not outlive the probe.
	probe := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	resp, err := probe.Get(d.url + "/healthz")
	if err != nil {
		d.stop()
		return nil, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		d.stop()
		return nil, fmt.Errorf("healthz: %s", resp.Status)
	}
	return d, nil
}

// stop drains the manager, closes the server and deletes the data
// directory. It returns once the server's goroutines have ended.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	d.mgr.Shutdown(ctx) //nolint:errcheck // nothing runs when a pass has ended
	if err := d.srv.Shutdown(ctx); err != nil {
		d.srv.Close()
	}
	os.RemoveAll(d.dir)
}

// jobOutcome is what a client saw of one job.
type jobOutcome struct {
	Got       observed
	Submit    time.Duration // POST /jobs round trip
	FirstTree time.Duration // POST sent to first NDJSON line read
	QueueWait time.Duration // from /jobs/{id}/stats, when asked for
	Requests  int
	Bytes     int64 // NDJSON stream bytes
	Err       error
}

// serveStats adds up what the clients of one pass saw.
type serveStats struct {
	Submit    time.Duration
	QueueWait time.Duration
	Requests  int
	Bytes     int64
	Trees     int64
	Errors    int
}

var (
	ndjsonOpen  = []byte(`{"tree":"`)
	ndjsonClose = []byte(`"}`)
)

// serveClient is one closed-loop client: it takes the next job of the list
// only when its previous one has completed.
type serveClient struct {
	base    string
	http    *http.Client
	threads int
	tr      *tracer
	parent  int
	stats   bool // also GET /jobs/{id}/stats, for the job's queue wait
}

// do runs one job: POST /jobs, GET /jobs/{id}/trees to EOF, GET /jobs/{id}.
// The tree lines go to lines, newline-terminated, for the checker.
func (c *serveClient) do(in *input, op int, lines *bytes.Buffer) (out jobOutcome) {
	fail := func(err error) jobOutcome { out.Err = fmt.Errorf("%s: %w", in.Name, err); return out }
	root := c.tr.begin("job", c.parent, op)
	defer c.tr.end(root)

	t0 := time.Now()
	body, err := json.Marshal(service.JobRequest{
		Trees: in.Lines, Threads: c.threads,
		MaxTrees: -1, MaxStates: -1, MaxTimeSeconds: -1,
	})
	if err != nil {
		return fail(err)
	}
	posted := time.Now()
	sp := c.tr.begin("http.submit", root, op)
	var st service.Status
	err = c.call(http.MethodPost, "/jobs", body, http.StatusAccepted, &st)
	c.tr.end(sp)
	out.Requests++
	out.Submit = time.Since(posted)
	if err != nil {
		return fail(err)
	}

	first := c.tr.begin("http.first_tree", root, op)
	sp = first
	resp, err := c.http.Get(c.base + "/jobs/" + st.ID + "/trees")
	out.Requests++
	if err != nil {
		c.tr.end(sp)
		return fail(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		c.tr.end(sp)
		return fail(fmt.Errorf("GET trees: %s", resp.Status))
	}
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	stream := -1
	for n := 0; ; n++ {
		line, err := br.ReadBytes('\n')
		if n == 0 {
			out.FirstTree = time.Since(t0)
			c.tr.end(sp)
			stream = c.tr.begin("http.stream", root, op)
		}
		if len(line) > 0 {
			out.Bytes += int64(len(line))
			line = bytes.TrimSuffix(line, []byte("\n"))
			if !bytes.HasPrefix(line, ndjsonOpen) || !bytes.HasSuffix(line, ndjsonClose) {
				c.tr.end(stream)
				return fail(fmt.Errorf("malformed stream line %q", line))
			}
			lines.Write(line[len(ndjsonOpen) : len(line)-len(ndjsonClose)])
			lines.WriteByte('\n')
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			c.tr.end(stream)
			return fail(err)
		}
	}
	c.tr.end(stream)

	sp = c.tr.begin("http.get", root, op)
	err = c.call(http.MethodGet, "/jobs/"+st.ID, nil, http.StatusOK, &st)
	c.tr.end(sp)
	out.Requests++
	if err != nil {
		return fail(err)
	}
	if c.stats {
		var js service.JobStats
		if err := c.call(http.MethodGet, "/jobs/"+st.ID+"/stats", nil, http.StatusOK, &js); err != nil {
			return fail(err)
		}
		out.Requests++
		out.QueueWait = time.Duration(js.QueueWaitSeconds * float64(time.Second))
		// The daemon's queue wait lies inside the client's wait for the
		// first tree; drawn at its start, it splits that span's self time
		// into queueing and everything else.
		c.tr.child(first, "queue_wait", out.QueueWait)
	}

	out.Got = observed{Stop: st.StopReason}
	out.Got.Counters.StandTrees = st.StandTrees
	out.Got.Counters.IntermediateStates = st.Intermediate
	out.Got.Counters.DeadEnds = st.DeadEnds
	if st.Error != "" {
		return fail(fmt.Errorf("job error: %s", st.Error))
	}
	return out
}

// call makes one JSON request and decodes the reply into v.
func (c *serveClient) call(method, path string, body []byte, want int, v any) error {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("%s %s: %s", method, path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// serveClients is the number of closed-loop clients that share the job
// list: two, so that jobs queue behind the daemon's one worker.
const serveClients = 2

// serveRun is one way of driving the daemon: the variant of a serve pass.
type serveRun struct {
	Threads int // the jobs' "threads"
	Tracer  *tracer
	Stats   bool // also ask for every job's queue wait
}

// pass runs the job list once against a fresh daemon, started and stopped
// outside the timed region. The clients' jobs overlap, so the pass is one
// unit: its sample is the wall time, CPU time and allocation of the whole
// pass, and the jobs' first-tree latencies added up. It also returns what
// the clients counted and what differed from the oracle.
func (sr serveRun) pass(dir string, jobs []input, exps []expected) (unitSample, serveStats, []string) {
	d, err := startDaemon(dir)
	if err != nil {
		return unitSample{}, serveStats{Errors: 1}, []string{"daemon: " + err.Error()}
	}
	defer d.stop()
	transport := &http.Transport{MaxIdleConnsPerHost: serveClients}
	defer transport.CloseIdleConnections()

	outcomes := make([]jobOutcome, len(jobs))
	// The clients keep each job's tree lines for the checker, which hashes
	// them when the clock has stopped; the buffers are sized beforehand so
	// that keeping them costs a job a copy and no allocation.
	lines := make([]bytes.Buffer, len(jobs))
	for i := range lines {
		lines[i].Grow(int(exps[i].Trees.Bytes + exps[i].Trees.N))
	}
	var next atomic.Int64
	var wg sync.WaitGroup

	runtime.GC()
	m := startMeter()
	root := sr.Tracer.begin("pass", -1, 0)
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := &serveClient{base: d.url, http: &http.Client{Transport: transport},
				threads: sr.Threads, tr: sr.Tracer, parent: root, stats: sr.Stats}
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				outcomes[i] = cl.do(&jobs[i], i+1, &lines[i])
			}
		}()
	}
	wg.Wait()
	sr.Tracer.end(root)
	sample := m.stop()

	var stats serveStats
	var problems []string
	for i, o := range outcomes {
		sample.firstTree += o.FirstTree.Seconds()
		stats.Requests += o.Requests
		stats.Bytes += o.Bytes
		stats.Submit += o.Submit
		stats.QueueWait += o.QueueWait
		if o.Err != nil {
			stats.Errors++
			problems = append(problems, o.Err.Error())
			continue
		}
		o.Got.Trees = &treeSet{}
		for b := lines[i].Bytes(); len(b) > 0; {
			nl := bytes.IndexByte(b, '\n')
			o.Got.Trees.add(b[:nl])
			b = b[nl+1:]
		}
		stats.Trees += o.Got.Trees.N
		if p := exps[i].check(o.Got); p != "" {
			problems = append(problems, jobs[i].Name+": "+p)
		}
	}
	return sample, stats, problems
}
