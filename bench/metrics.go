package main

import (
	"fmt"
	"io"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"hybridmem/internal/model"
)

// metricDef is one metric as BENCHMARK.json declares it. Bound is the share
// of the parent's median by which an end-to-end metric may worsen before a
// change counts as a regression; per-layer metrics have none.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd are the metrics a user of the simulator sees, printed by every
// workload's untraced run. A "design point" is one evaluated design on one
// workload; README.md defines, per workload, which operation each latency
// sample times.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"designpts_per_s", "1/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p99_ms", "ms", "lower", 0.25},
	{"peak_rss_mb", "MiB", "lower", 0.25},
}

// serveStages are the per-stage wall-time names the serving layer records on
// its http_request run-log events, as the layer ladder exercises them.
var serveStages = []string{
	"validate", "cache_lookup", "store_lookup", "profile", "build", "decode",
	"replay", "finish", "fault_account", "analytic", "store_write", "encode",
}

// perLayer are the traced run's metrics. Times and the analytic error come
// from the layer ladder (ladder.go), counts and traced.designpts_per_s from
// the workload's own measured phase run with tracing on.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"workload.emit_s", "s", "lower", 0},
		{"core.prefix_s", "s", "lower", 0},
		{"trace.encode_s", "s", "lower", 0},
		{"reuse.sketch_s", "s", "lower", 0},
		{"exp.reference_s", "s", "lower", 0},
		{"exp.profile_s", "s", "lower", 0},
		{"trace.decode_s", "s", "lower", 0},
		{"trace.decodes_per_ref", "ratio", "lower", 0},
		{"core.access_batch_s.nmm", "s", "lower", 0},
		{"core.access_batch_s.4lc", "s", "lower", 0},
		{"core.access_batch_s.4lcnvm", "s", "lower", 0},
		{"core.access_batch_s.custom", "s", "lower", 0},
		{"model.evaluate_s", "s", "lower", 0},
		{"exp.runjobs_s", "s", "lower", 0},
		{"exp.fanout_wait_s", "s", "lower", 0},
		{"analytic.predict_s", "s", "lower", 0},
		{"analytic.relerr_amat", "ratio", "lower", 0},
		{"analytic.out_of_envelope", "count", "lower", 0},
		{"store.open_s", "s", "lower", 0},
		{"store.put_stream_s", "s", "lower", 0},
		{"store.get_stream_s", "s", "lower", 0},
		{"store.put_doc_s", "s", "lower", 0},
		{"store.get_doc_s", "s", "lower", 0},
		{"exp.restore_profile_s", "s", "lower", 0},
		{"store.bytes", "B", "lower", 0},
		{"serve.normalize_s", "s", "lower", 0},
		{"serve.handler_s", "s", "lower", 0},
		{"net.wire_s", "s", "lower", 0},
		{"serve.restart_s", "s", "lower", 0},
	}
	for _, st := range serveStages {
		defs = append(defs, metricDef{"serve.stage." + st + "_s", "s", "lower", 0})
	}
	return append(defs,
		metricDef{"traced.designpts_per_s", "1/s", "higher", 0},
		metricDef{"sim.boundary_refs", "count", "lower", 0},
		metricDef{"sim.replayed_refs", "count", "lower", 0},
		metricDef{"analytic.predicts", "count", "higher", 0},
		metricDef{"analytic.unsupported_ratio", "ratio", "lower", 0},
		metricDef{"serve.hit_ratio", "ratio", "higher", 0},
		metricDef{"serve.outcome.hit", "count", "higher", 0},
		metricDef{"serve.outcome.miss", "count", "lower", 0},
		metricDef{"serve.outcome.analytic", "count", "higher", 0},
		metricDef{"serve.outcome.store_hit", "count", "higher", 0},
	)
}()

// metricByName indexes both tables.
var metricByName = func() map[string]metricDef {
	m := map[string]metricDef{}
	for _, d := range append(slices.Clone(endToEnd), perLayer...) {
		m[d.Name] = d
	}
	return m
}()

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload run's verdict: the object printed as the last line
// of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// workloadRun is a result plus what the run file keeps beside it: the
// sample count behind each percentile, a digest of the simulated results,
// which must repeat exactly for a given seed, and the host-speed factor the
// run's times were scaled by (hostspeed.go).
type workloadRun struct {
	result
	Samples   map[string]int `json:"samples,omitempty"`
	Digest    string         `json:"digest,omitempty"`
	HostSpeed float64        `json:"host_speed,omitempty"`
}

// runFile is what -o writes and `bench compare` reads.
type runFile struct {
	Seed      uint64                 `json:"seed"`
	Seconds   int                    `json:"seconds"`
	Trace     int                    `json:"trace"`
	Workloads map[string]workloadRun `json:"workloads"`
}

// run is one workload run in progress: its configuration and inputs, the
// operation counts, and the metric values recorded so far.
type run struct {
	cfg     config
	seed    uint64
	seconds time.Duration
	traced  bool
	// tmp is a scratch directory inside the working directory, removed when
	// the run ends.
	tmp string
	// grid holds the expected exact evaluations (loadExpectedGrid); nil
	// skips the comparison, which only the tests' reduced configuration does.
	grid map[string]model.Evaluation
	// speed samples the host's speed while the run measures (see
	// hostspeed.go); nil reports raw times.
	speed *hostSpeed

	attempted atomic.Int64
	failed    atomic.Int64

	mu      sync.Mutex
	values  map[string]float64
	samples map[string]int
	digest  string
}

func newRun(cfg config, seed uint64, seconds time.Duration, traced bool, tmp string) *run {
	r := &run{
		cfg: cfg, seed: seed, seconds: seconds, traced: traced, tmp: tmp,
		values: map[string]float64{}, samples: map[string]int{},
	}
	// Counts and ratios of work a workload may never do start at zero.
	for _, name := range []string{"analytic.predicts", "analytic.unsupported_ratio", "serve.hit_ratio", "serve.outcome.hit",
		"serve.outcome.miss", "serve.outcome.analytic", "serve.outcome.store_hit"} {
		r.values[name] = 0
	}
	return r
}

// attempt counts n attempted operations.
func (r *run) attempt(n int) { r.attempted.Add(int64(n)) }

// fail counts one failed operation and reports the first few on stderr.
func (r *run) fail(format string, args ...any) {
	if n := r.failed.Add(1); n <= 5 {
		fmt.Fprintf(os.Stderr, "bench: failed: "+format+"\n", args...)
	}
}

// set records a metric value.
func (r *run) set(name string, v float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.values[name] = v
}

// setLatency records the median and 99th percentile of latency samples in
// milliseconds, with the sample count behind them.
func (r *run) setLatency(ms []float64) {
	s := slices.Clone(ms)
	slices.Sort(s)
	r.set("latency_p50_ms", percentile(s, 50))
	r.set("latency_p99_ms", percentile(s, 99))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.samples["latency_p50_ms"] = len(s)
	r.samples["latency_p99_ms"] = len(s)
}

// hostSeconds is the length of [from, to] at the reference host speed.
func (r *run) hostSeconds(from, to time.Time) float64 {
	return to.Sub(from).Seconds() * r.speed.scale(from, to)
}

// hostMillis scales latency samples taken during [from, to], in place, to
// the reference host speed.
func (r *run) hostMillis(ms []float64, from, to time.Time) []float64 {
	s := r.speed.scale(from, to)
	for i := range ms {
		ms[i] *= s
	}
	return ms
}

// another reports whether a phase measured in whole units of work (passes,
// rounds), begun at start, should run one more unit, given that the last
// one took last: it should if that unit would end no later than half a unit
// past the deadline, which keeps the phase within half a unit of its
// target length.
func (r *run) another(start time.Time, last time.Duration) bool {
	return time.Since(start)+last/2 < r.seconds
}

// report assembles the run's result from the metrics of one table.
func (r *run) report(defs []metricDef) (workloadRun, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := workloadRun{
		result: result{
			Attempted: r.attempted.Load(),
			Failed:    r.failed.Load(),
			Metrics:   map[string]metricValue{},
		},
		Samples: r.samples,
		Digest:  r.digest,
	}
	out.Correct = out.Failed == 0 && out.Attempted > 0
	for _, d := range defs {
		name := d.Name
		if r.traced && name == "traced.designpts_per_s" {
			name = "designpts_per_s"
		}
		v, ok := r.values[name]
		if !ok {
			return out, fmt.Errorf("metric %s was not measured", d.Name)
		}
		out.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out, nil
}

// printLines writes one "workload metric value unit" line per metric, in
// table order, with the sample count beside each percentile.
func printLines(w io.Writer, workload string, defs []metricDef, wr workloadRun) {
	for _, d := range defs {
		m, ok := wr.Metrics[d.Name]
		if !ok {
			continue
		}
		line := fmt.Sprintf("%s %s %.6g %s", workload, d.Name, m.Value, m.Unit)
		if n, ok := wr.Samples[d.Name]; ok {
			line += fmt.Sprintf(" n=%d", n)
		}
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "%s ops attempted=%d failed=%d digest=%s host_speed=%.4f\n",
		workload, wr.Attempted, wr.Failed, wr.Digest, wr.HostSpeed)
}
