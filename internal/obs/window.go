// Windowed histograms: per-interval rates and quantiles for serving-path
// metrics. A plain cumulative Histogram answers "what happened since the
// process started", which is the wrong question for an SLO dashboard — a
// latency regression ten minutes into a week-long run is invisible under
// the lifetime average. A WindowedHistogram keeps the lifetime cumulative
// buckets (so Prometheus rate()/histogram_quantile() still work on the
// exposition) and additionally maintains a rotating pair of interval
// bucket sets, from which it reports the request rate and interpolated
// quantiles over roughly the last window.
package obs

import (
	"math"
	"sync"
	"time"
)

// WindowedHistogram is a fixed-bucket histogram that tracks both lifetime
// totals and a rotating observation window. All methods are safe for
// concurrent use and safe on a nil receiver.
type WindowedHistogram struct {
	name   string
	help   string
	bounds []float64
	window time.Duration
	now    func() time.Time // injectable for tests

	mu        sync.Mutex
	life      []int64 // lifetime per-bucket counts, last entry +Inf
	lifeCount int64
	lifeSum   float64
	cur       winBuckets
	prev      winBuckets
}

// winBuckets is one interval's worth of observations.
type winBuckets struct {
	counts []int64 // per-bucket, last entry +Inf
	count  int64
	sum    float64
	start  time.Time
	span   time.Duration // for a rotated-out window: the time it covered
}

// WindowSnapshot is the per-interval view of a WindowedHistogram: the
// observation count and rate over the covered span (the last complete
// window plus the in-progress one), and interpolated quantiles.
type WindowSnapshot struct {
	Count   int64
	Rate    float64 // observations per second over the covered span
	Covered time.Duration
	P50     float64
	P95     float64
	P99     float64
}

// newWindowedHistogram builds the instrument; registration happens in
// Registry.WindowedHistogram.
func newWindowedHistogram(name, help string, bounds []float64, window time.Duration, now func() time.Time) *WindowedHistogram {
	if window <= 0 {
		window = time.Minute
	}
	if now == nil {
		now = time.Now
	}
	h := &WindowedHistogram{
		name:   name,
		help:   help,
		bounds: append([]float64(nil), bounds...),
		window: window,
		now:    now,
		life:   make([]int64, len(bounds)+1),
	}
	h.cur = winBuckets{counts: make([]int64, len(bounds)+1), start: now()}
	return h
}

// WindowedHistogram returns the histogram registered under name, registering
// it on first use, with per-interval rate/quantile reporting. The exposition renders the lifetime cumulative histogram under
// name plus companion gauges <name>_window_rate, _window_p50, _window_p95
// and _window_p99 computed over roughly the last window.
func (r *Registry) WindowedHistogram(name, help string, bounds []float64, window time.Duration) *WindowedHistogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: windowed histogram " + name + " bounds not ascending")
		}
	}
	return register(r, name, func() *WindowedHistogram {
		return newWindowedHistogram(name, help, bounds, window, nil)
	})
}

// rotate retires the current interval when it has run past the window:
// one stale window back it becomes prev, further back both are dropped.
// Caller holds h.mu.
func (h *WindowedHistogram) rotate(now time.Time) {
	elapsed := now.Sub(h.cur.start)
	if elapsed < h.window {
		return
	}
	if elapsed < 2*h.window {
		h.prev = h.cur
		h.prev.span = elapsed
	} else {
		h.prev = winBuckets{}
	}
	h.cur = winBuckets{counts: make([]int64, len(h.bounds)+1), start: now}
}

// Observe records one observation into the lifetime totals and the current
// window. Safe on a nil receiver.
func (h *WindowedHistogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := bucketIndex(h.bounds, v)
	h.mu.Lock()
	h.rotate(h.now())
	h.life[i]++
	h.lifeCount++
	h.lifeSum += v
	h.cur.counts[i]++
	h.cur.count++
	h.cur.sum += v
	h.mu.Unlock()
}

// Count returns the lifetime observation count (0 on nil).
func (h *WindowedHistogram) Count() int64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.lifeCount
}

// Sum returns the lifetime sum of observed values (0 on nil).
func (h *WindowedHistogram) Sum() float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.lifeSum
}

// Window snapshots the per-interval view: rate and quantiles over the last
// complete window merged with the in-progress one. Safe on nil.
func (h *WindowedHistogram) Window() WindowSnapshot {
	if h == nil {
		return WindowSnapshot{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	now := h.now()
	h.rotate(now)
	merged := make([]int64, len(h.bounds)+1)
	copy(merged, h.cur.counts)
	for i, c := range h.prev.counts {
		merged[i] += c
	}
	snap := WindowSnapshot{
		Count:   h.cur.count + h.prev.count,
		Covered: h.prev.span + now.Sub(h.cur.start),
	}
	if s := snap.Covered.Seconds(); s > 0 {
		snap.Rate = float64(snap.Count) / s
	}
	snap.P50 = bucketQuantile(0.50, h.bounds, merged)
	snap.P95 = bucketQuantile(0.95, h.bounds, merged)
	snap.P99 = bucketQuantile(0.99, h.bounds, merged)
	return snap
}

// lifeBuckets copies the lifetime per-bucket counts. Caller holds no lock.
func (h *WindowedHistogram) lifeBuckets() ([]int64, int64, float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]int64, len(h.life))
	copy(out, h.life)
	return out, h.lifeCount, h.lifeSum
}

// bucketIndex returns the index of the first bound >= v, or len(bounds)
// for the +Inf bucket.
func bucketIndex(bounds []float64, v float64) int {
	lo, hi := 0, len(bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
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
