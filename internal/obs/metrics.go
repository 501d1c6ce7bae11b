package obs

import "sync/atomic"

// Counter is a named, monotonically increasing counter exposed on the
// Prometheus registry (GET /metrics of any process that mounts
// MetricsHandler, including memsimd). Counters are process-global and
// looked up by name in DefaultRegistry, so independent components — and
// tests constructing several servers — share one counter per name.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the counter's current value.
func (c *Counter) Value() uint64 { return c.v.Load() }

// NewCounter returns the process-global counter with the given name,
// registering it on first use. Subsequent calls with the same name return
// the same counter.
func NewCounter(name string) *Counter {
	return getOrCreate(DefaultRegistry, name, func() *counterMetric {
		return &counterMetric{name: name, c: &Counter{}}
	}).c
}
