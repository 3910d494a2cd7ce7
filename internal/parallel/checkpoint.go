// Checkpoints of the running pool. One frontier form — the queue's tasks plus
// what interrupted workers handed in — is cut by a round here and by the
// checkpoint-on-stop of a drained pool, and resumed by Run at any width.
package parallel

import (
	"runtime/debug"
	"time"

	"gentrius/internal/search"
)

// round takes a checkpoint of the running pool: a stop that the pool resumes
// from in place. The halt flag interrupts the workers exactly as a stop
// does — each flushes, hands in what is left of its task and goes to
// steal — and pausing holds them there. With every worker idle, the queue,
// the hand-ins and the flushed counters are one consistent cut; the
// hand-ins are then queued the way a resumed run's tasks are, ahead of the
// rest, so a round costs one path replay per interrupted worker and leaves
// the schedule alone. A round that finds the pool done returns nil and
// leaves a stop's hand-ins for the checkpoint-on-stop.
func (g *globals) round() *search.Checkpoint {
	q := g.q
	q.mu.Lock()
	defer q.mu.Unlock()
	// Every worker idle with tasks queued is a pool that has not resumed from
	// the previous round yet: let one steal, so the run moves between cuts.
	for q.idle == q.workers && len(q.tasks) > 0 && !q.done {
		q.ctl.Wait()
	}
	q.pausing = true
	g.halt.Store(true)
	for q.idle < q.workers && !q.done {
		q.ctl.Wait()
	}
	if !q.done {
		// Nothing moves while the pool is held, so the lock is not needed to
		// wait for the collector — and a stop must not wait for a slow sink.
		q.mu.Unlock()
		g.drainTrees()
		q.mu.Lock()
	}
	var cp *search.Checkpoint
	if !q.done {
		cp = g.su.Checkpoint(g.snapshot(), g.opt.Threads, q.frontier())
		queued := q.tasks
		q.tasks = nil
		for _, ft := range q.handed {
			g.enqueue(ft)
		}
		q.tasks, q.handed = append(q.tasks, queued...), nil
	}
	q.pausing = false
	// In this order: a raise between a load and a store would be lost.
	g.halt.Store(false)
	if g.reason.Load() != 0 {
		g.halt.Store(true)
	}
	q.cond.Broadcast()
	return cp
}

// drainTrees blocks until every stand tree counted by a flushed worker has
// been through the collector's callbacks, so a checkpoint's counters never
// run ahead of its tree spool. Only called while the workers are held (every
// block handed on, sent frozen).
func (g *globals) drainTrees() {
	for g.treesDone.Load() < g.treesSent.Load() {
		time.Sleep(100 * time.Microsecond)
	}
}

// collect feeds the tree stream to sink until the stream is closed (false)
// or sink panics (true): the run then fails with an OnTreePanicError and the
// caller goes on draining. Every block taken off the stream is counted done,
// so a round waiting in drainTrees is released either way, and its buffer
// goes back to the free list, which has room: a block travels against a
// buffer taken from it.
func (g *globals) collect(sink func(block []byte, n int)) (panicked bool) {
	var tb treeBlock
	done := func() {
		g.treesDone.Add(int64(tb.n))
		g.free <- tb.b
	}
	defer func() {
		if r := recover(); r != nil {
			panicked = true
			done()
			g.fail(&OnTreePanicError{Value: r, Stack: debug.Stack()})
		}
	}()
	for tb = range g.treeCh {
		sink(tb.b, tb.n)
		done()
	}
	return false
}
