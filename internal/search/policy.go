package search

// Policy is the paper's parallel scheme (Sec. III) as constants and pure
// decisions. Every driver of the scheme — the serial runner, and the one
// scheduler of package parallel on either of its clocks — normalizes one
// Policy and asks it when to hand work off and when to publish counters.
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

	// Split is how many of a frame's branches a submission hands off (zero:
	// the paper's half).
	Split SplitPolicy
}

// SplitPolicy is the task-granularity design choice (DESIGN.md ablations).
type SplitPolicy int8

// Split policies.
const (
	SplitHalf      SplitPolicy = iota // the paper's choice: floor(n/2)
	SplitOne                          // submit a single branch per task
	SplitAllButOne                    // submit everything except one branch
)

func (p SplitPolicy) String() string {
	switch p {
	case SplitOne:
		return "one"
	case SplitAllButOne:
		return "all-but-one"
	default:
		return "half"
	}
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
// branches the worker offers as a task: none when fewer than MinRemaining
// taxa remain to insert or half of them, rounded down, is none; else half,
// one or all but one of them, as Split says. Zero means keep them all.
// (Whether the queue has room is the driver's side of the decision.)
func (p Policy) Submit(remainingTaxa, nBranches int) int {
	n := nBranches / 2
	if remainingTaxa < p.MinRemaining || n == 0 {
		return 0
	}
	switch p.Split {
	case SplitOne:
		return 1
	case SplitAllButOne:
		return nBranches - 1
	}
	return n
}

// FlushDue reports whether a worker's unflushed counters filled any batch.
func (p Policy) FlushDue(local Counters) bool {
	return local.StandTrees >= p.TreeBatch ||
		local.IntermediateStates >= p.StateBatch ||
		local.DeadEnds >= p.DeadEndBatch
}
