package obs

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// This file is the zero-dependency Prometheus exposition path: every
// counter, vector, and histogram registered through this package renders
// into the Prometheus text format (version 0.0.4) on demand, so memsimd can
// serve GET /metrics without importing a client library. The module has no
// external dependencies and observability must not be the thing that
// changes that.

// promMetric is one exposable metric family.
type promMetric interface {
	// metricName is the raw (unsanitized) registration name.
	metricName() string
	// writeProm renders the family: HELP/TYPE headers plus samples.
	writeProm(w io.Writer) error
}

// Registry collects metric families for Prometheus exposition. The
// process-global DefaultRegistry receives everything created through
// NewCounter, NewCounterVec, NewGaugeVec, NewHistogram, NewHistogramVec,
// and RegisterGaugeFunc; tests build private registries for golden output.
type Registry struct {
	mu      sync.Mutex
	byName  map[string]promMetric
	ordered []promMetric
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]promMetric{}}
}

// DefaultRegistry is the process-global registry behind MetricsHandler.
var DefaultRegistry = NewRegistry()

// register adds a metric family, keeping the first registration of a name.
func (r *Registry) register(m promMetric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.byName[m.metricName()]; ok {
		return
	}
	r.byName[m.metricName()] = m
	r.ordered = append(r.ordered, m)
}

// WritePrometheus renders every registered family in name order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	ms := append([]promMetric(nil), r.ordered...)
	r.mu.Unlock()
	sort.Slice(ms, func(i, j int) bool { return ms[i].metricName() < ms[j].metricName() })
	for _, m := range ms {
		if err := m.writeProm(w); err != nil {
			return err
		}
	}
	return nil
}

// WritePrometheus renders the default registry (memsimd's GET /metrics).
func WritePrometheus(w io.Writer) error { return DefaultRegistry.WritePrometheus(w) }

// MetricsHandler serves the default registry in Prometheus text format.
func MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		WritePrometheus(w)
	})
}

// promName sanitizes a registration name ("memsimd.requests_total") into a
// Prometheus metric name ("memsimd_requests_total").
func promName(name string) string {
	var b strings.Builder
	b.Grow(len(name))
	for i, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteRune(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteRune(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// formatFloat renders a sample value in the shortest exact form.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// writeHeader emits the HELP (when non-empty) and TYPE lines.
func writeHeader(w io.Writer, name, help, typ string) error {
	if help != "" {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n", name, help); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, typ)
	return err
}

// counterMetric exposes one plain Counter.
type counterMetric struct {
	name string
	help string
	c    *Counter
}

func (m *counterMetric) metricName() string { return m.name }

func (m *counterMetric) writeProm(w io.Writer) error {
	name := promName(m.name)
	if err := writeHeader(w, name, m.help, "counter"); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s %d\n", name, m.c.Value())
	return err
}

// gaugeFuncMetric exposes a computed gauge.
type gaugeFuncMetric struct {
	name string
	help string
	f    func() float64
}

func (m *gaugeFuncMetric) metricName() string { return m.name }

func (m *gaugeFuncMetric) writeProm(w io.Writer) error {
	name := promName(m.name)
	if err := writeHeader(w, name, m.help, "gauge"); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s %s\n", name, formatFloat(m.f()))
	return err
}

// gaugeVecFuncMetric exposes a computed labeled gauge family.
type gaugeVecFuncMetric struct {
	name  string
	help  string
	label string
	f     func() map[string]float64
}

func (m *gaugeVecFuncMetric) metricName() string { return m.name }

func (m *gaugeVecFuncMetric) writeProm(w io.Writer) error {
	name := promName(m.name)
	if err := writeHeader(w, name, m.help, "gauge"); err != nil {
		return err
	}
	vals := m.f()
	for _, k := range sortedKeys(vals) {
		if _, err := fmt.Fprintf(w, "%s{%s=%q} %s\n", name, m.label, escapeLabel(k), formatFloat(vals[k])); err != nil {
			return err
		}
	}
	return nil
}

// RegisterGaugeFunc exposes a computed value as a Prometheus gauge (and via
// expvar). Idempotent by name, like PublishFunc.
func RegisterGaugeFunc(name, help string, f func() float64) {
	DefaultRegistry.register(&gaugeFuncMetric{name: name, help: help, f: f})
	PublishFunc(name, func() any { return f() })
}

// RegisterGaugeVecFunc exposes a computed labeled family (label value ->
// gauge) as a Prometheus gauge family — e.g. the durable store's state
// (1 on the active state's label). Idempotent by name.
func RegisterGaugeVecFunc(name, help, label string, f func() map[string]float64) {
	DefaultRegistry.register(&gaugeVecFuncMetric{name: name, help: help, label: label, f: f})
	PublishFunc(name, func() any { return f() })
}

// counterVecMetric exposes a CounterVec.
type counterVecMetric struct{ v *CounterVec }

func (m *counterVecMetric) metricName() string { return m.v.name }

func (m *counterVecMetric) writeProm(w io.Writer) error {
	name := promName(m.v.name)
	if err := writeHeader(w, name, m.v.help, "counter"); err != nil {
		return err
	}
	children := m.v.vec.snapshot()
	for _, k := range sortedKeys(children) {
		if _, err := fmt.Fprintf(w, "%s{%s=%q} %d\n", name, m.v.label, escapeLabel(k), children[k].Value()); err != nil {
			return err
		}
	}
	return nil
}

// gaugeVecMetric exposes a GaugeVec.
type gaugeVecMetric struct{ v *GaugeVec }

func (m *gaugeVecMetric) metricName() string { return m.v.name }

func (m *gaugeVecMetric) writeProm(w io.Writer) error {
	name := promName(m.v.name)
	if err := writeHeader(w, name, m.v.help, "gauge"); err != nil {
		return err
	}
	children := m.v.vec.snapshot()
	for _, k := range sortedKeys(children) {
		if _, err := fmt.Fprintf(w, "%s{%s=%q} %d\n", name, m.v.label, escapeLabel(k), children[k].Value()); err != nil {
			return err
		}
	}
	return nil
}

// writeHistSamples renders one histogram's cumulative _bucket/_sum/_count
// samples. labels is the pre-rendered label prefix (`outcome="hit",` or
// empty). Zero-delta buckets are elided — cumulative values repeat, so the
// series stays valid and the 65-bucket log2 layout stays compact.
func writeHistSamples(w io.Writer, name, labels string, s HistSnapshot, factor float64) error {
	cum := uint64(0)
	for i, n := range s.Buckets {
		if n == 0 {
			continue
		}
		cum += n
		_, hi := bucketBounds(i)
		if _, err := fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n", name, labels, formatFloat(hi*factor), cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", name, labels, s.Count); err != nil {
		return err
	}
	bare := ""
	if labels != "" {
		bare = "{" + strings.TrimSuffix(labels, ",") + "}"
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, bare, formatFloat(float64(s.Sum)*factor)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, bare, s.Count)
	return err
}

// histMetric exposes one plain Histogram.
type histMetric struct{ h *Histogram }

func (m *histMetric) metricName() string { return m.h.name }

func (m *histMetric) writeProm(w io.Writer) error {
	name := promName(m.h.name)
	if err := writeHeader(w, name, m.h.help, "histogram"); err != nil {
		return err
	}
	return writeHistSamples(w, name, "", m.h.Snapshot(), m.h.factor)
}

// histVecMetric exposes a HistogramVec.
type histVecMetric struct{ v *HistogramVec }

func (m *histVecMetric) metricName() string { return m.v.name }

func (m *histVecMetric) writeProm(w io.Writer) error {
	name := promName(m.v.name)
	if err := writeHeader(w, name, m.v.help, "histogram"); err != nil {
		return err
	}
	children := m.v.vec.snapshot()
	for _, k := range sortedKeys(children) {
		labels := fmt.Sprintf("%s=%q,", m.v.label, escapeLabel(k))
		if err := writeHistSamples(w, name, labels, children[k].Snapshot(), m.v.factor); err != nil {
			return err
		}
	}
	return nil
}

// sortedKeys returns the map's keys in sorted order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
