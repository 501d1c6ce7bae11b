package obs

import (
	"net/http/httptest"
	"strings"
	"testing"
)

// TestWritePrometheusGolden locks the exposition format byte for byte on a
// private registry: HELP/TYPE headers, sanitized names, sorted families,
// labeled samples, and the histogram's cumulative bucket/sum/count triple
// with zero-delta buckets elided.
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()

	c := &Counter{}
	c.Add(42)
	r.register(&counterMetric{name: "memsimd.requests_total", help: "Total requests.", c: c})

	r.register(&gaugeFuncMetric{name: "memsimd.cache_hit_ratio", help: "Hit ratio.",
		f: func() float64 { return 0.75 }})

	r.register(&gaugeVecFuncMetric{name: "memsimd.store_state", help: "Store state.",
		label: "state", f: func() map[string]float64 {
			return map[string]float64{"ok": 1, "degraded": 0}
		}})

	h := &Histogram{name: "memsimd.request_seconds", help: "Latency.", factor: 1e-9}
	h.Observe(0)       // bucket 0, le 1e-09
	h.Observe(1 << 10) // bucket 11, le 2.048e-06
	h.Observe(1 << 10)
	hv := &HistogramVec{name: "memsimd.request_seconds", help: "Latency.", label: "outcome", factor: 1e-9}
	hv.vec = vec[Histogram]{m: map[string]*Histogram{"hit": h}, max: maxLabelValues}
	r.register(&histVecMetric{hv})

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	const golden = `# HELP memsimd_cache_hit_ratio Hit ratio.
# TYPE memsimd_cache_hit_ratio gauge
memsimd_cache_hit_ratio 0.75
# HELP memsimd_request_seconds Latency.
# TYPE memsimd_request_seconds histogram
memsimd_request_seconds_bucket{outcome="hit",le="1e-09"} 1
memsimd_request_seconds_bucket{outcome="hit",le="2.048e-06"} 3
memsimd_request_seconds_bucket{outcome="hit",le="+Inf"} 3
memsimd_request_seconds_sum{outcome="hit"} 2.048e-06
memsimd_request_seconds_count{outcome="hit"} 3
# HELP memsimd_requests_total Total requests.
# TYPE memsimd_requests_total counter
memsimd_requests_total 42
# HELP memsimd_store_state Store state.
# TYPE memsimd_store_state gauge
memsimd_store_state{state="degraded"} 0
memsimd_store_state{state="ok"} 1
`
	if b.String() != golden {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", b.String(), golden)
	}
}

func TestPromName(t *testing.T) {
	for in, want := range map[string]string{
		"memsimd.requests_total": "memsimd_requests_total",
		"hybridmem.fan_width":    "hybridmem_fan_width",
		"9lives":                 "_9lives",
		"a-b c":                  "a_b_c",
	} {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestEscapeLabel(t *testing.T) {
	if got := escapeLabel("a\"b\\c\nd"); got != `a\"b\\c\nd` {
		t.Errorf("escapeLabel = %q", got)
	}
}

func TestMetricsHandlerContentType(t *testing.T) {
	NewCounter("test.prom_handler").Add(1)
	rec := httptest.NewRecorder()
	MetricsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("Content-Type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "test_prom_handler 1") {
		t.Errorf("body missing registered counter:\n%s", rec.Body.String())
	}
}

// TestRegistryKeepsFirstRegistration pins the idempotence rule the
// process-global constructors rely on.
func TestRegistryKeepsFirstRegistration(t *testing.T) {
	r := NewRegistry()
	a := &Counter{}
	a.Add(1)
	b := &Counter{}
	b.Add(2)
	r.register(&counterMetric{name: "dup", c: a})
	r.register(&counterMetric{name: "dup", c: b})
	var out strings.Builder
	if err := r.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "dup 1") || strings.Contains(out.String(), "dup 2") {
		t.Errorf("registry did not keep the first registration:\n%s", out.String())
	}
}
