package search

// Policy is the paper's parallel scheme (Sec. III) as constants and pure
// decisions. Every driver of the scheme — the goroutine pool, the
// virtual-time simulator — normalizes one Policy and asks it when to hand
// work off and when to publish counters, so the figures the simulator
// reproduces are claims about the rules the real pool runs.
type Policy struct {
	// Batch sizes for flushes of a worker's local counters into the global
	// totals (Sec. III-B); zero selects the paper's 2^10 / 2^13 / 2^10.
	// A batch of 1 reproduces the unbatched ablation.
	TreeBatch, StateBatch, DeadEndBatch int64

	// QueueCap is the task-queue capacity (zero: the paper's rule, N_t+1
	// below 8 threads and N_t/2 from 8 up).
	QueueCap int

	// MinRemaining is the depth restriction: a worker with fewer remaining
	// taxa than this does not submit tasks (zero: the paper's 3).
	MinRemaining int
}

// Normalize fills in the paper's defaults for a pool of the given width.
func (p Policy) Normalize(threads int) Policy {
	if p.TreeBatch <= 0 {
		p.TreeBatch = 1 << 10
	}
	if p.StateBatch <= 0 {
		p.StateBatch = 1 << 13
	}
	if p.DeadEndBatch <= 0 {
		p.DeadEndBatch = 1 << 10
	}
	if p.QueueCap <= 0 {
		if threads < 8 {
			p.QueueCap = threads + 1
		} else {
			p.QueueCap = threads / 2
		}
	}
	if p.MinRemaining <= 0 {
		p.MinRemaining = 3
	}
	return p
}

// Submit decides how many of a freshly pushed frame's nBranches admissible
// branches the worker offers as a task: half of them, rounded down, unless
// fewer than MinRemaining taxa remain to insert. Zero means keep them all.
// (Whether the queue has room is the driver's side of the decision.)
func (p Policy) Submit(remainingTaxa, nBranches int) int {
	if remainingTaxa < p.MinRemaining {
		return 0
	}
	return nBranches / 2
}

// FlushDue reports whether a worker's unflushed counters filled any batch.
func (p Policy) FlushDue(local Counters) bool {
	return local.StandTrees >= p.TreeBatch ||
		local.IntermediateStates >= p.StateBatch ||
		local.DeadEnds >= p.DeadEndBatch
}
