// SchedMetrics bundles the instruments the work-stealing pool exports,
// named after the paper constructs they measure (the search counters its
// batched flushes publish, task steals, the queue). Construct one per run
// with NewSchedMetrics; a nil *SchedMetrics (or any nil field) disables
// that instrument.
package obs

// SchedMetrics is the scheduler-level instrument set for one run.
type SchedMetrics struct {
	reg *Registry

	// Search-progress counters, updated at every batched flush — the live
	// view of the three quantities Gentrius bounds.
	Trees    *Counter
	States   *Counter
	DeadEnds *Counter

	// Task-queue instruments (paper Sec. III-A).
	TasksStolen *Counter
	QueueDepth  *Gauge

	// Runs failed by a panic in a task, at any thread count (counted where
	// both hosts' errors pass: gentrius.EnumerateStandContext).
	WorkerPanics *Counter

	perWorker []WorkerMetrics
}

// WorkerMetrics is one worker's labelled counter triple.
type WorkerMetrics struct {
	Trees    *Counter
	States   *Counter
	DeadEnds *Counter
	Stolen   *Counter
}

// NewSchedMetrics registers the scheduler instrument set on reg with the
// gentrius_ prefix.
func NewSchedMetrics(reg *Registry) *SchedMetrics {
	return &SchedMetrics{
		reg:      reg,
		Trees:    reg.Counter("gentrius_stand_trees_total", "stand trees found"),
		States:   reg.Counter("gentrius_intermediate_states_total", "intermediate states visited"),
		DeadEnds: reg.Counter("gentrius_dead_ends_total", "dead ends hit"),

		TasksStolen: reg.Counter("gentrius_tasks_stolen_total", "tasks dequeued by idle workers"),
		QueueDepth:  reg.Gauge("gentrius_task_queue_depth", "tasks currently queued"),

		WorkerPanics: reg.Counter("gentrius_worker_panics_recovered_total", "runs failed by a panic in a task"),
	}
}

// EnsureWorkers registers per-worker labelled counters for worker ids
// 0..n-1 (idempotent; only grows). Safe on a nil receiver.
func (m *SchedMetrics) EnsureWorkers(n int) {
	if m == nil || m.reg == nil {
		return
	}
	for w := len(m.perWorker); w < n; w++ {
		l := itoa(w)
		m.perWorker = append(m.perWorker, WorkerMetrics{
			Trees:    m.reg.Counter(`gentrius_worker_stand_trees_total{worker="`+l+`"}`, "stand trees found per worker"),
			States:   m.reg.Counter(`gentrius_worker_intermediate_states_total{worker="`+l+`"}`, "intermediate states per worker"),
			DeadEnds: m.reg.Counter(`gentrius_worker_dead_ends_total{worker="`+l+`"}`, "dead ends per worker"),
			Stolen:   m.reg.Counter(`gentrius_worker_tasks_stolen_total{worker="`+l+`"}`, "tasks stolen per worker"),
		})
	}
}

// Worker returns worker w's counter triple (zero value on nil receiver or
// out-of-range id — every counter inside is nil and therefore a no-op).
func (m *SchedMetrics) Worker(w int) WorkerMetrics {
	if m == nil || w < 0 || w >= len(m.perWorker) {
		return WorkerMetrics{}
	}
	return m.perWorker[w]
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// Sink is what a run attaches to: metrics, an event trace, a search-space
// estimator, or any combination. A nil *Sink, or nil fields, disable the
// respective layer.
type Sink struct {
	Metrics  *SchedMetrics
	Trace    *Recorder
	Estimate *Estimator
}

// nopSched has every instrument nil, so all updates are no-op branches.
var nopSched = &SchedMetrics{}

// SchedMetrics returns the sink's metric set, or a no-op set when the sink
// or its metrics are nil — callers never need a nil check before touching
// a field.
func (s *Sink) SchedMetrics() *SchedMetrics {
	if s == nil || s.Metrics == nil {
		return nopSched
	}
	return s.Metrics
}

// Recorder returns the sink's trace recorder (nil-safe).
func (s *Sink) Recorder() *Recorder {
	if s == nil {
		return nil
	}
	return s.Trace
}

// Estimator returns the sink's search-space estimator (nil-safe; a nil
// *Estimator is itself a no-op, so callers can use the result directly).
func (s *Sink) Estimator() *Estimator {
	if s == nil {
		return nil
	}
	return s.Estimate
}
