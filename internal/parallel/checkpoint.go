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
func (p *pool) round() *search.Checkpoint {
	p.mu.Lock()
	defer p.mu.Unlock()
	// Every worker idle with tasks queued is a pool that has not resumed from
	// the previous round yet: let one steal, so the run moves between cuts.
	for p.idle == p.workers && len(p.tasks) > 0 && !p.done {
		p.ctl.Wait()
	}
	p.pausing = true
	p.halt.Store(true)
	for p.idle < p.workers && !p.done {
		p.ctl.Wait()
	}
	if !p.done {
		// Nothing moves while the pool is held, so the lock is not needed to
		// wait for the collector — and a stop must not wait for a slow sink.
		p.mu.Unlock()
		p.drainTrees()
		p.mu.Lock()
	}
	var cp *search.Checkpoint
	if !p.done {
		cp = p.su.Checkpoint(p.totals(), p.opt.Threads, p.cut())
		queued := p.tasks
		p.tasks = nil
		for _, ft := range p.handed {
			p.enqueue(ft)
		}
		p.tasks, p.handed = append(p.tasks, queued...), nil
		p.queued()
	}
	p.pausing = false
	// In this order: a raise between a load and a store would be lost.
	p.halt.Store(false)
	if p.reason.Load() != 0 {
		p.halt.Store(true)
	}
	p.cond.Broadcast()
	return cp
}

// drainTrees blocks until every stand tree counted by a flushed worker has
// been through the collector's callbacks, so a checkpoint's counters never
// run ahead of its tree spool. Only called while the workers are held (every
// block handed on, sent frozen).
func (p *pool) drainTrees() {
	for p.treesDone.Load() < p.treesSent.Load() {
		time.Sleep(100 * time.Microsecond)
	}
}

// collect feeds the tree stream to sink until the stream is closed (false)
// or sink panics (true): the run then fails with a *search.PanicError, as
// it does when a task panics, and the caller goes on draining. Every block
// taken off the stream is counted done, so a round waiting in drainTrees is
// released either way, and its buffer goes back to the free list, which has
// room: a block travels against a buffer taken from it.
func (p *pool) collect(sink func(block []byte, n int)) (panicked bool) {
	var tb treeBlock
	done := func() {
		p.treesDone.Add(int64(tb.n))
		p.free <- tb.b
	}
	defer func() {
		if r := recover(); r != nil {
			panicked = true
			done()
			p.fail(&search.PanicError{Value: r, Stack: debug.Stack()})
		}
	}()
	for tb = range p.treeCh {
		sink(tb.b, tb.n)
		done()
	}
	return false
}
