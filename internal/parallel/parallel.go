// Package parallel implements the paper's shared-memory parallel Gentrius:
// a pool of workers (goroutines standing in for OpenMP threads), each with a
// fully private copy of the search state, cooperating through a bounded task
// queue guarded by a mutex and condition variable (the Go equivalents of the
// paper's OpenMP locks and std::condition_variable).
//
// The scheme itself is stated once in package search, shared with the
// serial runner and the fleet coordinator: the run set-up (Start), the task
// form (FrontierTask), the constants and decisions (Policy) and the
// per-thread protocol (Worker: private Terrace at I_0, replay a task's path,
// explore, offer a share of a fresh frame, batch the counters, rewind). The
// scheduler the paper builds around it — queue, offers, totals and stopping
// rules, stop, cut, start rule — is written once here (sched) and run by two
// hosts: Run, a goroutine per Worker, with checkpoint rounds, the tree stream
// and the failure rule (a panic fails the run); and Simulate, the same
// scheduler on a deterministic virtual clock, which is what the paper's
// figures are computed from. Both take search.Options, as the serial runner
// does — the simulator beside its clock's VirtualTime — and return its
// search.Result, the simulator's with its ticks beside it. The global
// stand-tree / intermediate-state / dead-end counters are shared atomics,
// updated once per published batch; each batch re-evaluates the stopping
// rules and, when one fires, raises the halt flag that all workers poll —
// so, like the paper's implementation, the limits can be overshot slightly.
package parallel

import (
	"context"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"time"

	"gentrius/internal/obs"
	"gentrius/internal/search"
	"gentrius/internal/tree"
)

// treeBlocks is how many blocks of stand trees may be on their way from the
// workers to the collector goroutine: the capacity of the channel they
// stream through and the length of the free list the collector returns
// their buffers to. With one block the workers wait on the collector at
// every hand-off (two-thread passes of the benchmark's streaming workloads
// take a quarter to a half longer), with two they still do now and then, and
// from four on nothing more is gained; four blocks of up to search.BlockSize
// are 128 KiB ahead of the sink — about 150 trees of a hundred taxa, where
// the per-tree channel this replaces held 256 — which is also what a
// checkpoint round or a stopped run waits for the sink to take.
const treeBlocks = 4

// Options is the one options type of every in-process driver,
// search.Options: a pool of Threads takes every field in the sense it has
// for search.Run.
type Options = search.Options

// Result is the one result type of every in-process driver, search.Result.
// A pool fills every field of it.
type Result = search.Result

// pool is the goroutine host of one run's scheduler: the workers'
// goroutines, their termination barrier, checkpoint rounds and the tree
// stream.
type pool struct {
	sched
	opt    *Options
	treeCh chan treeBlock // nil when nobody takes the trees
	free   chan []byte    // buffers the collector is done with (nil: not allocated yet)

	// Under mu: a worker not executing a task waits in steal, and the pool
	// has drained when every started worker does with the queue empty; a
	// round holds them there.
	idle    int
	workers int  // started so far: one until worker 0 starts the rest (spawn)
	pausing bool // a round is on: steal holds every worker

	live    atomic.Int32 // started workers still running; the last one out closes drained
	drained chan struct{}
	// work is what each worker's engines did, written by retire.
	work []search.Work

	// treesSent/treesDone bracket the tree stream: workers count a block's
	// trees before they send it, the collector counts them after the
	// callbacks return. A checkpoint drains the gap (drainTrees) so its
	// counters never claim trees the spool has not yet seen.
	treesSent atomic.Int64
	treesDone atomic.Int64
}

// Run enumerates the stand with up to opt.Threads workers (<= 0: one). What
// there is to do — the initial split in Threads shares, or a resumed frontier —
// is queued and worker 0 alone started on it: it starts the others at its
// first poll (spawn), so a stand over before that costs what one worker costs.
func Run(constraints []*tree.Tree, opt Options) (*Result, error) {
	// However the run ends, unblock any snapshot request that raced the control
	// loop's exit: a Request landing after the loop's last poll would block for
	// ever (Finish is nil-safe and idempotent).
	defer opt.Checkpoint.Trigger.Finish()
	started := time.Now()
	// Shared set-up: initial tree, prefix walk (or the checkpoint's
	// frontier), and the outstanding work. What it already counted seeds the
	// totals and stands in as Result.Prefix, preserving the conservation
	// invariant Counters == Prefix + sum(PerWorker).
	su, err := opt.Start(constraints)
	if err != nil {
		return nil, err
	}
	opt.Policy = opt.Policy.Normalize(opt.Threads)
	ck := opt.Checkpoint
	res := su.Result()
	m := opt.Obs.SchedMetrics()
	m.EnsureWorkers(opt.Threads)
	p := &pool{sched: sched{su: su, policy: opt.Policy, limits: opt.Limits, started: started,
		m: m, rec: opt.Obs.Recorder(), est: opt.Obs.Estimator()}, opt: &opt, workers: 1}
	sink := search.TreeSink[[]byte](opt.CollectTrees, &res.Trees, opt.OnTree, opt.OnTrees)
	if !p.start(opt.Threads, sink) {
		su.Release()
		res.SetWork(su, search.Work{})
		res.Elapsed = time.Since(started)
		return res, nil
	}
	// The gauge is the live view of this queue: however the run ends, failed
	// with tasks still queued included, it ends empty.
	defer m.QueueDepth.Set(0)

	// Cancellation raises the stop the moment the context is done; workers
	// notice at their next tick, waiting ones are woken.
	if opt.Ctx != nil {
		defer context.AfterFunc(opt.Ctx, func() { p.raise(search.StopCancelled) })()
	}

	// Streaming: workers send their blocks of stand trees into a bounded
	// channel; one collector goroutine drains it into the callbacks and/or
	// the merged result and returns the buffers through the free list.
	var collectDone chan struct{}
	if sink != nil {
		p.treeCh = make(chan treeBlock, treeBlocks)
		p.free = make(chan []byte, treeBlocks)
		for i := 0; i < treeBlocks; i++ {
			p.free <- nil
		}
		collectDone = make(chan struct{})
		go func() {
			defer close(collectDone)
			// After a panic in the sink the run is failing: discard the rest
			// of the stream so that no worker stays blocked at the free list.
			for p.collect(sink) {
				sink = func([]byte, int) {}
			}
		}()
	}

	p.work = make([]search.Work, opt.Threads)
	p.drained = make(chan struct{})
	p.launch(&poolWorker{pool: p, worker: worker{s: &p.sched}, rest: opt.Threads - 1})

	// Run's own goroutine is the control loop until the pool has drained:
	// each trigger request and each interval tick takes one round.
	var tick <-chan time.Time
	if ck.Interval > 0 && ck.Sink != nil {
		tkr := time.NewTicker(ck.Interval)
		defer tkr.Stop()
		tick = tkr.C
	}
	for running := true; running; {
		select {
		case <-p.drained:
			running = false
		case reply := <-ck.Trigger.Requests():
			reply <- p.round()
		case <-tick:
			if cp := p.round(); cp != nil {
				ck.Sink(cp)
			}
		}
	}
	if p.treeCh != nil {
		close(p.treeCh)
		<-collectDone
	}
	// The pool has drained: no worker holds a Terrace any more.
	su.Release()

	if p.failErr != nil {
		// A task or the tree sink panicked: the pool has drained, but the
		// enumeration is incomplete in an unquantifiable way — return the
		// error, not misleading partial counters.
		return nil, p.failErr
	}

	var work search.Work
	for i, c := range p.perWorker {
		res.Counters.Add(c)
		work.Add(p.work[i])
	}
	res.PerWorker = p.perWorker
	res.TasksStolen = p.stolen
	res.Flushes = p.flushes.Load()
	res.Stop = search.StopReason(p.reason.Load())
	res.SetWork(su, work)
	if ck.OnStop {
		res.Checkpoint = p.checkpointOnStop(opt.Threads)
	}
	res.Elapsed = time.Since(started)
	return res, nil
}

// steal blocks until a task is available for worker w or the pool
// terminates (nil). Ownership of the task transfers to the caller.
func (p *pool) steal(w int) *task {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.idle++; p.idle == p.workers {
		p.ctl.Signal()
	}
	for {
		switch {
		case p.done:
			return nil
		case p.pausing:
			// Held: neither stealing nor termination detection during a round.
		case len(p.tasks) > 0:
			if p.idle == p.workers {
				p.ctl.Signal() // the pool has resumed (see round)
			}
			p.idle--
			return p.pop(w)
		case p.idle == p.workers:
			// Everyone is waiting and the queue is empty: no work remains.
			p.done = true
			p.cond.Broadcast()
			return nil
		}
		p.cond.Wait()
	}
}

// poolWorker is one goroutine of the pool: the scheduler's worker plus the
// tree stream, the failure rule and the halt poll.
type poolWorker struct {
	*pool
	worker
	units int64 // ticked so far, in the paper machine's transitions
	next  int64 // the units at which the worker next polls: the first multiple of CheckEvery above units
	rest  int   // worker 0: the workers it has not started yet
}

// retire accounts what w's search.Worker did, at exit.
func (w *poolWorker) retire() {
	w.work[w.id].Add(w.wk.Work())
}

// treeBlock is n stand trees on their way to the collector.
type treeBlock struct {
	b []byte
	n int
}

// Trees streams a block of stand trees to the collector, in exchange for a
// buffer from the free list: the list starts as treeBlocks buffers not
// allocated yet (nil: the engine allocates), and a block is sent only against
// one of them, so at most treeBlocks blocks are on their way, the send never
// blocks, a run owns at most that many buffers and one per worker however
// many trees it finds, and a slow sink holds the workers here. The sent
// counter lets a checkpoint wait for the collector to catch up (drainTrees). The run's first block — one tree — also yields the
// processor: the collector the send woke is queued behind this worker and,
// every processor busy, would not run until the free list ran out.
func (w *poolWorker) Trees(block []byte, n int) []byte {
	next := <-w.free
	first := w.treesSent.Add(int64(n)) == int64(n)
	w.treeCh <- treeBlock{block, n}
	if first {
		runtime.Gosched()
	}
	return next
}

// execute runs one task to its end, or to the halt flag. A panic in it —
// the engine's, or at a fault site of the search.Worker — fails the run
// with a *search.PanicError, as it fails a serial one: the stop goes out,
// the worker leaves the pool, and its wrecked Terrace is released with the
// run's others.
func (w *poolWorker) execute(tk *task) {
	defer func() {
		if r := recover(); r != nil {
			w.emit(obs.EvPanic, w.id, obs.F("task", tk.id), obs.F("taxon", int64(tk.root().Taxon)))
			w.emit(obs.EvTaskEnd, w.id, obs.F("task", tk.id), obs.F("panic", 1))
			w.fail(&search.PanicError{Value: r, Stack: debug.Stack()})
		}
	}()
	if !w.begin(tk) {
		return
	}
	for ph, cost := search.Replay, int64(0); ; {
		if ph, cost = w.wk.Tick(w.next - w.units); ph == search.Idle {
			break
		}
		// Every CheckEvery transitions of the paper's machine, as the serial
		// runner.
		if w.units += cost; w.units >= w.next {
			every := int64(w.opt.CheckEvery)
			w.next = (w.units/every + 1) * every
			w.checkLimits()
			if w.rest > 0 {
				w.spawn()
			}
		}
		// Polled after engine steps only: a stolen task gets past its path replay
		// and a step further, so back-to-back rounds cannot replay it for ever.
		if cost > 0 && ph == search.Explore && w.halt.Load() {
			break
		}
	}
	w.end()
}

// launch runs w on a goroutine of its own. Its search.Worker is made here, by
// the starter: a run's second is cut from the Terrace of worker 0
// (search.Setup.NewTerrace), which only worker 0 may read.
func (p *pool) launch(w *poolWorker) {
	w.wk = p.su.NewWorker(p.opt.Policy, w, p.est, p.treeCh != nil)
	w.wk.Fault = p.opt.Fault
	w.next = int64(p.opt.CheckEvery)
	p.live.Add(1)
	go func() {
		w.run()
		if p.live.Add(-1) == 0 {
			close(p.drained)
		}
	}()
}

// spawn has worker 0 start the others: the goroutine host's spawn point is
// the first poll execute makes anyway, unless the pool is done by then. A
// worker beyond the first costs its clone and its goroutine once the stand
// has outlived 1024 transitions, as most of a corpus do not. p.workers
// changes under mu: between two evaluations of the idle == workers barrier,
// never during one.
func (w *poolWorker) spawn() {
	n := w.rest
	w.rest = 0
	w.mu.Lock()
	if w.done {
		n = 0
	}
	w.workers += n
	w.mu.Unlock()
	for id := 1; id <= n; id++ {
		w.launch(&poolWorker{pool: w.pool, worker: worker{s: &w.sched, id: id}})
	}
}

// run is the body of one pool worker: the stealing pool, until the queue
// reports termination.
func (w *poolWorker) run() {
	w.emit(obs.EvWorkerStart, w.id)
	for tk := w.steal(w.id); tk != nil; tk = w.steal(w.id) {
		w.execute(tk)
	}
	w.retire()
}
