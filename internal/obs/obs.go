// Package obs is the zero-dependency observability layer for the parallel
// Gentrius engine: atomic counters, gauges and histograms exposed in
// Prometheus text format, a low-overhead JSONL scheduler event trace, an
// optional HTTP endpoint (metrics + pprof), and a periodic progress
// reporter.
//
// What a process exports is a finite contract: cumulative aggregates of
// bounded cardinality, in one format. A label takes values from a set fixed
// by the code or the configuration (route, status code, retry site, worker
// index), never from traffic (job, request, shard, epoch): a per-object view
// lives on the object's own endpoint (GET /jobs/{id}/stats,
// GET /v1/fleet/status), and rates and quantiles are the reader's to derive
// from the cumulative buckets. CATALOGUE.md in this directory lists every
// metric family and trace event with its emitter and its reader; CI checks
// it against the registry and the event table in both directions.
//
// Every instrument is nil-receiver safe: a nil *Counter/*Gauge/*Histogram
// or a nil *Recorder turns the call into a single predictable branch, so
// the instrumented hot paths in internal/parallel cost nothing measurable
// when observability is off.
//
// This package holds only what a run writes. Reading a trace back —
// parsing, analysis, fleet merging, Markdown and Perfetto rendering — is
// internal/tracereport, which imports this package for the Ev* event
// names; nothing here imports it.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v    atomic.Int64
	name string
	help string
}

// Inc adds one. Safe on a nil receiver.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (n must be >= 0 for Prometheus semantics). Safe on nil.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value.
type Gauge struct {
	v    atomic.Int64
	name string
	help string
}

// Set stores n. Safe on a nil receiver.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket cumulative histogram (Prometheus semantics:
// each bucket counts observations <= its upper bound, plus an implicit
// +Inf bucket). Observations and bucket counts are atomics; concurrent
// Observe calls never lock.
type Histogram struct {
	name   string
	help   string
	bounds []float64 // ascending upper bounds, exclusive of +Inf
	counts []atomic.Int64
	inf    atomic.Int64
	count  atomic.Int64
	sum    atomicFloat
}

// atomicFloat is a float64 accumulated via CAS on its bit pattern.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) add(v float64) {
	for {
		old := f.bits.Load()
		neu := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, neu) {
			return
		}
	}
}

func (f *atomicFloat) load() float64 { return math.Float64frombits(f.bits.Load()) }

// Observe records one observation. Safe on a nil receiver.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Binary search for the first bound >= v.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(h.bounds) {
		h.counts[lo].Add(1)
	} else {
		h.inf.Add(1)
	}
	h.count.Add(1)
	h.sum.add(v)
}

// Count returns the total number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.load()
}

// BucketCounts returns the per-bucket (non-cumulative) counts, the last
// entry being the +Inf bucket.
func (h *Histogram) BucketCounts() []int64 {
	if h == nil {
		return nil
	}
	out := make([]int64, len(h.bounds)+1)
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	out[len(h.bounds)] = h.inf.Load()
	return out
}

// bucketQuantile estimates the q-quantile from per-bucket counts (last
// entry +Inf) by linear interpolation inside the holding bucket — the same
// scheme Prometheus's histogram_quantile uses. Observations in the +Inf
// bucket clamp to the highest finite bound. Returns 0 on an empty
// histogram.
func bucketQuantile(q float64, bounds []float64, counts []int64) float64 {
	if len(bounds) == 0 || len(counts) != len(bounds)+1 {
		return 0
	}
	var total int64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	if rank < 1 {
		rank = 1
	}
	var cum float64
	for i, c := range counts[:len(bounds)] {
		prev := cum
		cum += float64(c)
		if cum >= rank && c > 0 {
			lo := 0.0
			if i > 0 {
				lo = bounds[i-1]
			}
			hi := bounds[i]
			frac := (rank - prev) / float64(c)
			if frac < 0 || math.IsNaN(frac) {
				frac = 0
			} else if frac > 1 {
				frac = 1
			}
			return lo + (hi-lo)*frac
		}
	}
	return bounds[len(bounds)-1]
}

// Quantile estimates the q-quantile of a cumulative Histogram's lifetime
// distribution by bucket interpolation (0 on nil or empty).
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	return bucketQuantile(q, h.bounds, h.BucketCounts())
}

// ExpBuckets returns n upper bounds in geometric progression starting at
// start with the given factor — the usual choice for latency and size
// distributions.
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// Registry holds a set of named instruments and renders them.
type Registry struct {
	mu     sync.Mutex
	names  []string // registration order, for stable output
	metric map[string]any
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metric: map[string]any{}}
}

// register returns the instrument filed under name, making and filing it
// with mk on first use. Registering a name twice with the same type is how
// a labelled family looks one of its series up (one per route and status
// code, first seen at run time), so the registry's map is the only cache
// such a family needs; one name under two types is a bug and panics.
func register[T any](r *Registry, name string, mk func() T) T {
	r.mu.Lock()
	defer r.mu.Unlock()
	if old, dup := r.metric[name]; dup {
		m, same := old.(T)
		if !same {
			panic(fmt.Sprintf("obs: metric %q registered as %T and as %T", name, old, m))
		}
		return m
	}
	m := mk()
	r.metric[name] = m
	r.names = append(r.names, name)
	return m
}

// Counter returns the counter registered under name, registering it on
// first use. The name may carry Prometheus labels ('name{k="v"}').
func (r *Registry) Counter(name, help string) *Counter {
	return register(r, name, func() *Counter { return &Counter{name: name, help: help} })
}

// Gauge returns the gauge registered under name, registering it on first
// use.
func (r *Registry) Gauge(name, help string) *Gauge {
	return register(r, name, func() *Gauge { return &Gauge{name: name, help: help} })
}

// Histogram returns the histogram registered under name, registering it on
// first use with the given ascending bucket upper bounds (+Inf is implicit).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %q bounds not ascending", name))
		}
	}
	return register(r, name, func() *Histogram {
		return &Histogram{name: name, help: help,
			bounds: append([]float64(nil), bounds...),
			counts: make([]atomic.Int64, len(bounds))}
	})
}

// baseName strips a label suffix ('m{w="3"}' -> 'm') for HELP/TYPE lines.
func baseName(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// sortFamilies orders metric names for exposition: families (base names)
// lexicographically, labelled series within a family lexicographically.
// Scrape output is therefore deterministic regardless of registration
// order — what the golden tests and diff-based smoke checks rely on.
func sortFamilies(names []string) {
	sort.Slice(names, func(i, j int) bool {
		bi, bj := baseName(names[i]), baseName(names[j])
		if bi != bj {
			return bi < bj
		}
		return names[i] < names[j]
	})
}

// WritePrometheus renders every instrument in the Prometheus text
// exposition format, families sorted by name and labelled series sorted
// within each family (deterministic scrapes). HELP/TYPE headers are
// emitted once per base name (labelled series of one family share them).
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	names := append([]string(nil), r.names...)
	metric := make(map[string]any, len(r.metric))
	for k, v := range r.metric {
		metric[k] = v
	}
	r.mu.Unlock()
	sortFamilies(names)

	headered := map[string]bool{}
	header := func(name, help, typ string) {
		base := baseName(name)
		if headered[base] {
			return
		}
		headered[base] = true
		if help != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", base, help)
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", base, typ)
	}
	for _, name := range names {
		switch m := metric[name].(type) {
		case *Counter:
			header(name, m.help, "counter")
			fmt.Fprintf(w, "%s %d\n", name, m.Value())
		case *Gauge:
			header(name, m.help, "gauge")
			fmt.Fprintf(w, "%s %d\n", name, m.Value())
		case *Histogram:
			header(name, m.help, "histogram")
			base, labels := splitLabels(name)
			counts, cum := m.BucketCounts(), int64(0)
			for i, b := range m.bounds {
				cum += counts[i]
				fmt.Fprintf(w, "%s_bucket{%sle=\"%g\"} %d\n", base, labels, b, cum)
			}
			cum += counts[len(m.bounds)]
			fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", base, labels, cum)
			l := strings.TrimSuffix(labels, ",")
			if l != "" {
				l = "{" + l + "}"
			}
			fmt.Fprintf(w, "%s_sum%s %g\n", base, l, m.Sum())
			fmt.Fprintf(w, "%s_count%s %d\n", base, l, m.Count())
		}
	}
}

// splitLabels separates 'name{a="b"}' into ("name", `a="b",`); unlabelled
// names yield an empty label prefix.
func splitLabels(name string) (base, labels string) {
	i := strings.IndexByte(name, '{')
	if i < 0 {
		return name, ""
	}
	inner := strings.TrimSuffix(name[i+1:], "}")
	if inner == "" {
		return name[:i], ""
	}
	return name[:i], inner + ","
}

// Snapshot returns the scalar value of every counter and gauge plus the
// _count and _sum of every histogram, keyed by metric name — the form the
// harness attaches to experiment rows.
func (r *Registry) Snapshot() map[string]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]float64, len(r.metric))
	for name, m := range r.metric {
		switch m := m.(type) {
		case *Counter:
			out[name] = float64(m.Value())
		case *Gauge:
			out[name] = float64(m.Value())
		case *Histogram:
			out[name+"_count"] = float64(m.Count())
			out[name+"_sum"] = m.Sum()
		}
	}
	return out
}
