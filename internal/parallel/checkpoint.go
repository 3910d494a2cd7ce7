// Checkpoint support for the parallel pool: a quiesce protocol that parks
// every worker at a task/step boundary, drains the queue and the in-flight
// engine stacks into a frontier snapshot (see search.Frontier), and resumes
// the pool. The same frontier form is produced by the checkpoint-on-stop
// path (workers snapshot their interrupted engines as they drain) and
// consumed by Run on resume — onto any thread count.
package parallel

import (
	"sync"
	"sync/atomic"
	"time"

	"gentrius/internal/search"
)

// ckptCtl coordinates the quiesce protocol. The initiator (the checkpoint
// loop goroutine) raises pause; workers observe it at their next engine
// step (the same cadence as the stop flag) or in the steal wait (woken by
// the same cond broadcast cancellation uses) and park. Workers executing a
// task contribute what is left of it to the round's frontier; idle workers
// park empty-handed. When every live worker is parked the
// initiator owns a globally consistent cut: queue contents, flushed
// counters and in-flight stacks together are exactly the outstanding work.
type ckptCtl struct {
	pause atomic.Bool

	mu     sync.Mutex
	cond   *sync.Cond
	gen    int // completed quiesce rounds; parks key off it to unblock
	parked int
	active int // live workers (decremented on worker exit)
	tasks  []search.FrontierTask
}

func newCkptCtl(workers int) *ckptCtl {
	c := &ckptCtl{active: workers}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// park joins the round's barrier and blocks until the initiator releases
// it. A worker executing a task has flushed its counters and passes what is
// left of the task (search.Worker.Snapshot); one parking from the steal wait,
// or whose task has nothing left, passes no frames and only joins.
func (c *ckptCtl) park(t search.FrontierTask) {
	c.mu.Lock()
	gen := c.gen
	if len(t.Frames) > 0 {
		c.tasks = append(c.tasks, t)
	}
	c.parked++
	c.cond.Broadcast()
	for c.gen == gen && c.pause.Load() {
		c.cond.Wait()
	}
	c.parked--
	if c.parked == 0 {
		// The last straggler out unblocks an initiator already waiting to
		// start the next round.
		c.cond.Broadcast()
	}
	c.mu.Unlock()
}

// exit is deferred by every worker: a worker that leaves the pool (work
// exhausted, stop flag, fatal error) must not be waited for.
func (c *ckptCtl) exit() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.active--
	c.mu.Unlock()
	c.cond.Broadcast()
}

// acquire runs the quiesce: raise pause, wake cond-blocked stealers, wait
// until every live worker is parked. It returns the in-flight task
// snapshots and whether the cut is usable — false when the pool emptied
// out or the stop flag was raised mid-quiesce (workers then exited, or
// will exit, with in-flight work routed to the checkpoint-on-stop path
// instead, so this round's cut would be incomplete). The caller MUST call
// release() afterwards in all cases, and may read the queue and the global
// counters between acquire and release: with every worker parked, both are
// frozen.
func (c *ckptCtl) acquire(q *queue, g *globals) ([]search.FrontierTask, bool) {
	c.mu.Lock()
	// Wait out stragglers from the previous round first. Back-to-back
	// rounds happen (a slow drain makes the interval ticker fire again
	// immediately, or trigger requests queue up), and a worker released
	// from round N may not have woken yet: its residual parked count would
	// satisfy this round's barrier before anyone contributed an engine
	// snapshot, yielding a cut that silently drops all in-flight work.
	for c.parked > 0 {
		c.cond.Wait()
	}
	c.tasks = nil
	c.mu.Unlock()
	c.pause.Store(true)
	// Wake cond-blocked stealers with the queue's own cond (the cancellation
	// wake path): they re-check the pause flag under q.mu and park.
	q.mu.Lock()
	q.cond.Broadcast()
	q.mu.Unlock()

	c.mu.Lock()
	defer c.mu.Unlock()
	for c.parked < c.active {
		c.cond.Wait()
	}
	if c.active == 0 || g.stop.Load() {
		c.tasks = nil
		return nil, false
	}
	tasks := c.tasks
	c.tasks = nil
	return tasks, true
}

// release ends the round and unblocks the parked workers.
func (c *ckptCtl) release() {
	c.mu.Lock()
	c.pause.Store(false)
	c.gen++
	c.mu.Unlock()
	c.cond.Broadcast()
}

// collectStopTask records what is left of an interrupted task for the
// checkpoint-on-stop frontier, if the run takes one and anything is left.
// Called by workers as they drain on the stop flag, and by the
// panic-recovery path when a requeue is refused because the pool already
// stopped.
func (g *globals) collectStopTask(t search.FrontierTask) {
	if !g.ckptOnStop || len(t.Frames) == 0 {
		return
	}
	g.stopMu.Lock()
	g.stopTasks = append(g.stopTasks, t)
	g.stopMu.Unlock()
}

// drainTrees blocks until every stand tree counted by a flushed worker has
// been handed to the collector's OnTree callback, so a checkpoint's
// counters never run ahead of its tree spool. Only called while workers
// are parked (sent is frozen) or after they exited.
func (g *globals) drainTrees() {
	for g.treesDone.Load() < g.treesSent.Load() {
		time.Sleep(100 * time.Microsecond)
	}
}
