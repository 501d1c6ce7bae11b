package obs

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// histBuckets is the number of log2 buckets a Histogram carries: bucket i
// holds observations v with bits.Len64(v) == i, i.e. 2^(i-1) <= v < 2^i
// (bucket 0 holds exact zeros). 64-bit values need 65 buckets.
const histBuckets = 65

// Histogram is a lock-free, log2-bucketed histogram: Observe is two atomic
// increments and an atomic max update, cheap enough for per-request latency
// recording on the serving hot path. Quantiles are estimated by linear
// interpolation inside the containing power-of-two bucket, so p50/p90/p99
// carry at most a 2x bucket-resolution error — plenty for spotting order-of-
// magnitude latency shifts, which is what the log2 layout is for.
//
// By convention latency histograms observe nanoseconds and are created
// through NewLatencyHistogramVec, which marks them for seconds-scaled
// Prometheus exposition; plain NewHistogram observes unscaled counts (e.g.
// fan widths).
type Histogram struct {
	name   string
	help   string
	factor float64 // exposition scale: 1 for counts, 1e-9 for ns -> seconds
	bkts   [histBuckets]atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64
	max    atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	h.bkts[bits.Len64(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// ObserveDuration records a duration as nanoseconds (negative clamps to 0).
func (h *Histogram) ObserveDuration(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.Observe(uint64(d))
}

// HistSnapshot is a point-in-time copy of a histogram's counters. Buckets
// are read individually (not as one atomic unit), so a snapshot taken under
// concurrent observation may be off by the in-flight observations — fine
// for monitoring, which is its only use.
type HistSnapshot struct {
	// Buckets holds per-log2-bucket observation counts (see histBuckets).
	Buckets [histBuckets]uint64
	// Count is the total number of observations.
	Count uint64
	// Sum is the sum of all observed values.
	Sum uint64
	// Max is the largest observed value.
	Max uint64
}

// Snapshot copies the histogram's current counters.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	for i := range h.bkts {
		s.Buckets[i] = h.bkts[i].Load()
	}
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	s.Max = h.max.Load()
	return s
}

// bucketBounds returns bucket i's value range [lo, hi).
func bucketBounds(i int) (lo, hi float64) {
	if i == 0 {
		return 0, 1
	}
	return math.Ldexp(1, i-1), math.Ldexp(1, i)
}

// Quantile estimates the q-quantile (q in [0,1]) of the snapshot by linear
// interpolation within the containing log2 bucket. An empty snapshot
// returns 0; q >= 1 returns the observed max exactly.
func (s HistSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q >= 1 {
		return float64(s.Max)
	}
	if q < 0 {
		q = 0
	}
	target := q * float64(s.Count)
	cum := 0.0
	for i, n := range s.Buckets {
		if n == 0 {
			continue
		}
		next := cum + float64(n)
		if next >= target {
			lo, hi := bucketBounds(i)
			if hi > float64(s.Max)+1 {
				hi = float64(s.Max) + 1
			}
			frac := (target - cum) / float64(n)
			return lo + frac*(hi-lo)
		}
		cum = next
	}
	return float64(s.Max)
}

// Quantile estimates the q-quantile of everything observed so far.
func (h *Histogram) Quantile(q float64) float64 { return h.Snapshot().Quantile(q) }

// NewHistogram returns the process-global histogram with the given name,
// registering it on first use. Values are exposed unscaled.
func NewHistogram(name, help string) *Histogram {
	return getOrCreate(DefaultRegistry, name, func() *histMetric {
		return &histMetric{&Histogram{name: name, help: help, factor: 1}}
	}).h
}

// maxLabelValues bounds each vector's label cardinality. Labels beyond the
// bound collapse into the overflow value, so a caller-controlled label
// (e.g. a design name) cannot grow a vector without bound.
const maxLabelValues = 64

// overflowLabel is the label value that absorbs observations past
// maxLabelValues.
const overflowLabel = "other"

// vec is the shared label-to-child map behind the typed vectors: one label
// dimension, lazily created children, bounded cardinality.
type vec[T any] struct {
	mu  sync.RWMutex
	m   map[string]*T
	mk  func() *T
	max int
}

// with returns the child for the label value, creating it under the bound.
func (v *vec[T]) with(label string) *T {
	v.mu.RLock()
	c, ok := v.m[label]
	v.mu.RUnlock()
	if ok {
		return c
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c, ok := v.m[label]; ok {
		return c
	}
	if len(v.m) >= v.max {
		if c, ok := v.m[overflowLabel]; ok {
			return c
		}
		label = overflowLabel
	}
	c = v.mk()
	v.m[label] = c
	return c
}

// snapshot copies the label set under the read lock.
func (v *vec[T]) snapshot() map[string]*T {
	v.mu.RLock()
	defer v.mu.RUnlock()
	out := make(map[string]*T, len(v.m))
	for k, c := range v.m {
		out[k] = c
	}
	return out
}

// CounterVec is a family of counters sharing one name and distinguished by
// a single label (e.g. request outcomes). Children are created on first
// use; cardinality is bounded (see maxLabelValues).
type CounterVec struct {
	name  string
	help  string
	label string
	vec   vec[Counter]
}

// NewCounterVec returns the process-global counter vector with the given
// name, registering it on first use. label names the one label dimension.
func NewCounterVec(name, help, label string) *CounterVec {
	return getOrCreate(DefaultRegistry, name, func() *counterVecMetric {
		v := &CounterVec{name: name, help: help, label: label}
		v.vec = vec[Counter]{m: map[string]*Counter{}, mk: func() *Counter { return &Counter{} }, max: maxLabelValues}
		return &counterVecMetric{v}
	}).v
}

// With returns the counter for the given label value.
func (v *CounterVec) With(value string) *Counter { return v.vec.with(value) }

// HistogramVec is a family of histograms distinguished by a single label —
// the serving layer's request-latency histogram labeled by outcome.
type HistogramVec struct {
	name   string
	help   string
	label  string
	factor float64
	vec    vec[Histogram]
}

// NewLatencyHistogramVec returns the process-global latency-histogram
// vector with the given name (observations in nanoseconds, exposed as
// seconds), registering it on first use.
func NewLatencyHistogramVec(name, help, label string) *HistogramVec {
	return getOrCreate(DefaultRegistry, name, func() *histVecMetric {
		v := &HistogramVec{name: name, help: help, label: label, factor: 1e-9}
		v.vec = vec[Histogram]{m: map[string]*Histogram{}, mk: func() *Histogram {
			return &Histogram{name: name, help: help, factor: v.factor}
		}, max: maxLabelValues}
		return &histVecMetric{v}
	}).v
}

// With returns the histogram for the given label value.
func (v *HistogramVec) With(value string) *Histogram { return v.vec.with(value) }
