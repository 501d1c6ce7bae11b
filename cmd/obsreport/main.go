// Command obsreport aggregates the structured JSONL run logs that memsim,
// sweep, paperrepro, faultsweep, and memsimd emit (-runlog) into the
// observability views the raw lines don't give directly:
//
//   - per-event latency: count, mean, and exact p50/p90/p99/max over every
//     record carrying wall_ms, grouped by event name;
//   - per-stage latency: the same statistics over the per-request "stages"
//     breakdowns (validate, cache_lookup, profile, decode, replay, ...),
//     plus the mean stage coverage — how much of each request's wall time
//     the stage breakdown accounts for;
//   - replay throughput: per-design refs/sec over design_point events;
//   - request outcomes: http_request events tabulated by outcome (hit,
//     miss, analytic, rate_limited, would_deadline, negative, ...) with
//     each outcome classed as served / refused / rejected / failed;
//   - store lifecycle: store_open and store_heal events plus store_wound
//     and store_reopen_failed warnings, summarizing how the durable tier's
//     self-healing behaved across the run;
//   - span trees: -trace <id> reconstructs one request's (or one CLI
//     run's) event tree from the trace_id/span_id/parent_id annotations and
//     prints its stage breakdown against the recorded wall time.
//
// Usage:
//
//	obsreport run.jsonl                  # aggregate one run log
//	obsreport a.jsonl b.jsonl            # merge several
//	memsimd -runlog - 2>&1 | obsreport   # stdin when no files are named
//	obsreport -trace 4be1c6... run.jsonl # one request's span tree
//
// Quantiles here are exact (sorted samples), unlike the live /metrics
// histograms' bucketed estimates — obsreport is the offline ground truth.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"

	"hybridmem/internal/cli"
	"hybridmem/internal/report"
)

func main() {
	trace := flag.String("trace", "", "reconstruct one trace's span tree instead of aggregating")
	flag.Parse()

	recs, skipped, err := load(flag.Args())
	cli.Exit("obsreport", err)
	if skipped > 0 {
		fmt.Fprintf(os.Stderr, "obsreport: skipped %d malformed line(s)\n", skipped)
	}
	if len(recs) == 0 {
		cli.Exit("obsreport", fmt.Errorf("no run-log records found"))
	}

	if *trace != "" {
		cli.Exit("obsreport", printTrace(os.Stdout, recs, *trace))
		return
	}
	cli.Exit("obsreport", printEventLatency(os.Stdout, recs))
	cli.Exit("obsreport", printStageLatency(os.Stdout, recs))
	cli.Exit("obsreport", printThroughput(os.Stdout, recs))
	cli.Exit("obsreport", printOutcomes(os.Stdout, recs))
	cli.Exit("obsreport", printStoreLifecycle(os.Stdout, recs))
}

// record is one parsed JSONL run-log line. Field values keep their JSON
// types (numbers are float64).
type record struct {
	fields map[string]any
	line   int // 1-based position across the concatenated inputs
}

// str returns the record's string field (empty when absent or non-string).
func (r record) str(key string) string {
	s, _ := r.fields[key].(string)
	return s
}

// num returns the record's numeric field and whether it was present.
func (r record) num(key string) (float64, bool) {
	v, ok := r.fields[key].(float64)
	return v, ok
}

// stages returns the record's per-stage millisecond breakdown (nil when the
// record carries none).
func (r record) stages() map[string]float64 {
	m, ok := r.fields["stages"].(map[string]any)
	if !ok {
		return nil
	}
	out := make(map[string]float64, len(m))
	for k, v := range m {
		if f, ok := v.(float64); ok {
			out[k] = f
		}
	}
	return out
}

// load parses every line of the named JSONL files ("-" or no files =
// stdin), counting rather than failing on malformed lines — run logs from
// crashed processes may end mid-record.
func load(paths []string) (recs []record, skipped int, err error) {
	if len(paths) == 0 {
		paths = []string{"-"}
	}
	line := 0
	for _, p := range paths {
		var r io.Reader
		if p == "-" {
			r = os.Stdin
		} else {
			f, err := os.Open(p)
			if err != nil {
				return nil, 0, err
			}
			defer f.Close()
			r = f
		}
		sc := bufio.NewScanner(r)
		sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
		for sc.Scan() {
			line++
			text := strings.TrimSpace(sc.Text())
			if text == "" {
				continue
			}
			var f map[string]any
			if err := json.Unmarshal([]byte(text), &f); err != nil || f["event"] == nil {
				skipped++
				continue
			}
			recs = append(recs, record{fields: f, line: line})
		}
		if err := sc.Err(); err != nil {
			return nil, 0, fmt.Errorf("%s: %w", p, err)
		}
	}
	return recs, skipped, nil
}

// dist is an exact latency distribution: quantiles come from the sorted
// samples, not bucket interpolation.
type dist struct{ samples []float64 }

func (d *dist) add(v float64) { d.samples = append(d.samples, v) }
func (d *dist) count() int    { return len(d.samples) }
func (d *dist) total() float64 {
	var t float64
	for _, v := range d.samples {
		t += v
	}
	return t
}

func (d *dist) mean() float64 {
	if len(d.samples) == 0 {
		return 0
	}
	return d.total() / float64(len(d.samples))
}

// quantile returns the exact q-quantile (0 <= q <= 1) with linear
// interpolation between order statistics.
func (d *dist) quantile(q float64) float64 {
	n := len(d.samples)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), d.samples...)
	sort.Float64s(s)
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

func (d *dist) max() float64 {
	var m float64
	for _, v := range d.samples {
		if v > m {
			m = v
		}
	}
	return m
}

// ms formats a millisecond value for the tables.
func ms(v float64) string { return fmt.Sprintf("%.3f", v) }

// sortedNames returns m's keys ordered by descending total time, so the
// most expensive row leads each table.
func sortedNames(m map[string]*dist) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Slice(names, func(i, j int) bool {
		ti, tj := m[names[i]].total(), m[names[j]].total()
		if ti != tj {
			return ti > tj
		}
		return names[i] < names[j]
	})
	return names
}

// latencyTable renders one name→distribution map as an aligned table.
func latencyTable(w io.Writer, title, nameHeader string, m map[string]*dist) error {
	t := &report.Table{
		Title:   title,
		Headers: []string{nameHeader, "count", "total ms", "mean ms", "p50 ms", "p90 ms", "p99 ms", "max ms"},
	}
	for _, name := range sortedNames(m) {
		d := m[name]
		t.AddRow(name, fmt.Sprintf("%d", d.count()), ms(d.total()), ms(d.mean()),
			ms(d.quantile(0.50)), ms(d.quantile(0.90)), ms(d.quantile(0.99)), ms(d.max()))
	}
	_, err := t.WriteTo(w)
	return err
}

// printEventLatency aggregates wall_ms by event name.
func printEventLatency(w io.Writer, recs []record) error {
	byEvent := map[string]*dist{}
	for _, r := range recs {
		v, ok := r.num("wall_ms")
		if !ok {
			continue
		}
		name := r.str("event")
		d := byEvent[name]
		if d == nil {
			d = &dist{}
			byEvent[name] = d
		}
		d.add(v)
	}
	if len(byEvent) == 0 {
		fmt.Fprintln(w, "no events with wall_ms")
		return nil
	}
	return latencyTable(w, "event latency (wall_ms)", "event", byEvent)
}

// printStageLatency aggregates the per-request "stages" breakdowns and
// reports how much of the owning records' wall time the stages cover.
func printStageLatency(w io.Writer, recs []record) error {
	byStage := map[string]*dist{}
	var coverage dist
	for _, r := range recs {
		st := r.stages()
		if len(st) == 0 {
			continue
		}
		var sum float64
		for name, v := range st {
			d := byStage[name]
			if d == nil {
				d = &dist{}
				byStage[name] = d
			}
			d.add(v)
			sum += v
		}
		if wall, ok := r.num("wall_ms"); ok && wall > 0 {
			coverage.add(sum / wall)
		}
	}
	if len(byStage) == 0 {
		return nil
	}
	fmt.Fprintln(w)
	if err := latencyTable(w, "stage latency (ms, from per-request breakdowns)", "stage", byStage); err != nil {
		return err
	}
	if coverage.count() > 0 {
		fmt.Fprintf(w, "stage coverage: stages account for %.1f%% of wall time on average (%d record(s))\n",
			coverage.mean()*100, coverage.count())
	}
	return nil
}

// printThroughput summarizes design_point replay throughput per design.
func printThroughput(w io.Writer, recs []record) error {
	type agg struct {
		rps  dist
		refs float64
	}
	byDesign := map[string]*agg{}
	for _, r := range recs {
		if r.str("event") != "design_point" {
			continue
		}
		name := r.str("design")
		if name == "" {
			name = "(unnamed)"
		}
		a := byDesign[name]
		if a == nil {
			a = &agg{}
			byDesign[name] = a
		}
		if v, ok := r.num("refs_per_sec"); ok {
			a.rps.add(v)
		}
		if v, ok := r.num("refs"); ok {
			a.refs += v
		}
	}
	if len(byDesign) == 0 {
		return nil
	}
	names := make([]string, 0, len(byDesign))
	for k := range byDesign {
		names = append(names, k)
	}
	sort.Strings(names)
	t := &report.Table{
		Title:   "replay throughput (design_point events)",
		Headers: []string{"design", "points", "total refs", "mean refs/s", "p50 refs/s", "max refs/s"},
	}
	for _, name := range names {
		a := byDesign[name]
		t.AddRow(name, fmt.Sprintf("%d", a.rps.count()), fmt.Sprintf("%.0f", a.refs),
			fmt.Sprintf("%.0f", a.rps.mean()), fmt.Sprintf("%.0f", a.rps.quantile(0.5)),
			fmt.Sprintf("%.0f", a.rps.max()))
	}
	fmt.Fprintln(w)
	_, err := t.WriteTo(w)
	return err
}

// outcomeClass buckets one http_request outcome for the request-outcome
// table. "served" answered with a result (whatever tier or fidelity
// produced it); "refused" is admission control and graceful degradation
// doing its job — rate limiting, deadline shedding, backpressure, drain —
// where the client is expected to back off and retry; "rejected" is the
// client's fault and not retryable; "failed" is an evaluation that went
// wrong, including repeats answered from a remembered failure
// ("negative"). Anything else reports as "unknown" so a new outcome label
// cannot hide inside an old class.
func outcomeClass(outcome string) string {
	switch outcome {
	case "hit", "miss", "dedup", "store_hit", "analytic":
		return "served"
	case "rate_limited", "would_deadline", "overloaded", "shutting_down":
		return "refused"
	case "invalid":
		return "rejected"
	case "panic", "timeout", "canceled", "error", "negative":
		return "failed"
	default:
		return "unknown"
	}
}

// printOutcomes tabulates http_request records by outcome with each
// outcome's class and share of total requests.
func printOutcomes(w io.Writer, recs []record) error {
	counts := map[string]int{}
	total := 0
	for _, r := range recs {
		if r.str("event") != "http_request" {
			continue
		}
		outcome := r.str("outcome")
		if outcome == "" {
			outcome = "(none)"
		}
		counts[outcome]++
		total++
	}
	if total == 0 {
		return nil
	}
	names := make([]string, 0, len(counts))
	for k := range counts {
		names = append(names, k)
	}
	sort.Slice(names, func(i, j int) bool {
		if counts[names[i]] != counts[names[j]] {
			return counts[names[i]] > counts[names[j]]
		}
		return names[i] < names[j]
	})
	t := &report.Table{
		Title:   "request outcomes (http_request events)",
		Headers: []string{"outcome", "class", "count", "share"},
	}
	for _, name := range names {
		t.AddRow(name, outcomeClass(name), fmt.Sprintf("%d", counts[name]),
			fmt.Sprintf("%.1f%%", float64(counts[name])/float64(total)*100))
	}
	fmt.Fprintln(w)
	_, err := t.WriteTo(w)
	return err
}

// printStoreLifecycle summarizes the durable tier's health transitions:
// store_open and store_heal events plus the store_wound and
// store_reopen_failed warnings the self-healing guard emits. One wound
// with a matching heal is a survived incident; wounds without heals mean
// the process ended degraded.
func printStoreLifecycle(w io.Writer, recs []record) error {
	var opens, wounds, reopenFails, heals int
	var tornBytes, healAttempts float64
	for _, r := range recs {
		switch r.str("event") {
		case "store_open":
			opens++
			if v, ok := r.num("torn_bytes_recovered"); ok {
				tornBytes += v
			}
		case "store_heal":
			heals++
			if v, ok := r.num("torn_bytes_recovered"); ok {
				tornBytes += v
			}
			if v, ok := r.num("attempts"); ok {
				healAttempts += v
			}
		case "warning":
			switch r.str("message") {
			case "store_wound":
				wounds++
			case "store_reopen_failed":
				reopenFails++
			}
		}
	}
	if opens+wounds+reopenFails+heals == 0 {
		return nil
	}
	fmt.Fprintf(w, "\ndurable store lifecycle: %d open(s), %d wound(s), %d heal(s), %d failed reopen attempt(s)\n",
		opens, wounds, heals, reopenFails)
	if tornBytes > 0 {
		fmt.Fprintf(w, "  torn bytes recovered: %.0f\n", tornBytes)
	}
	if heals > 0 {
		fmt.Fprintf(w, "  mean reopen attempts per heal: %.1f\n", healAttempts/float64(heals))
	}
	if wounds > heals {
		fmt.Fprintf(w, "  WARNING: %d wound(s) never healed; the run ended with durability degraded\n", wounds-heals)
	}
	return nil
}

// printTrace reconstructs one trace's span tree. Every record annotated
// with the trace's ID becomes a node; parent_id edges give the hierarchy
// (records whose parent never logged a record of its own attach to the
// root). The tree prints in log order with each node's event, wall time,
// and identifying fields, followed by the trace's stage breakdown compared
// against the root record's wall time.
func printTrace(w io.Writer, recs []record, traceID string) error {
	var nodes []record
	for _, r := range recs {
		if r.str("trace_id") == traceID {
			nodes = append(nodes, r)
		}
	}
	if len(nodes) == 0 {
		return fmt.Errorf("trace %s: no records", traceID)
	}

	// Index spans that logged records so orphaned parent references (spans
	// that produced no record themselves) fall back to the root level.
	logged := map[string]bool{}
	for _, r := range nodes {
		if id := r.str("span_id"); id != "" {
			logged[id] = true
		}
	}
	children := map[string][]record{} // parent span_id -> records, log order
	var roots []record
	for _, r := range nodes {
		if p := r.str("parent_id"); p != "" && logged[p] {
			children[p] = append(children[p], r)
		} else {
			roots = append(roots, r)
		}
	}

	fmt.Fprintf(w, "trace %s: %d record(s)\n", traceID, len(nodes))
	// Several records can share one span (run_start and run_end both carry
	// the root span's ID); print each span's children under its first record
	// only.
	claimed := map[string]bool{}
	var walk func(r record, depth int)
	walk = func(r record, depth int) {
		fmt.Fprintf(w, "%s%s%s\n", strings.Repeat("  ", depth+1), r.str("event"), nodeSummary(r))
		id := r.str("span_id")
		if id == "" || claimed[id] {
			return
		}
		claimed[id] = true
		for _, c := range children[id] {
			walk(c, depth+1)
		}
	}
	for _, r := range roots {
		walk(r, 0)
	}

	// The stage breakdown lives on the trace's terminal record
	// (http_request or run_end); compare it against that record's wall
	// time to show attribution coverage.
	for _, r := range nodes {
		st := r.stages()
		if len(st) == 0 {
			continue
		}
		wall, _ := r.num("wall_ms")
		names := make([]string, 0, len(st))
		for k := range st {
			names = append(names, k)
		}
		sort.Slice(names, func(i, j int) bool { return st[names[i]] > st[names[j]] })
		fmt.Fprintf(w, "\nstage breakdown (%s, wall %.3f ms):\n", r.str("event"), wall)
		var sum float64
		for _, name := range names {
			share := ""
			if wall > 0 {
				share = fmt.Sprintf(" (%.1f%%)", st[name]/wall*100)
			}
			fmt.Fprintf(w, "  %-18s %10.3f ms%s\n", name, st[name], share)
			sum += st[name]
		}
		if wall > 0 {
			fmt.Fprintf(w, "  %-18s %10.3f ms (%.1f%% of wall)\n", "total", sum, sum/wall*100)
		}
	}
	return nil
}

// nodeSummary picks the identifying fields worth showing inline for one
// span-tree node.
func nodeSummary(r record) string {
	var b strings.Builder
	for _, k := range []string{"status", "outcome", "cache", "workload", "design"} {
		if v := r.str(k); v != "" {
			fmt.Fprintf(&b, " %s=%s", k, v)
		}
		if v, ok := r.num(k); ok {
			fmt.Fprintf(&b, " %s=%.0f", k, v)
		}
	}
	if v, ok := r.num("wall_ms"); ok {
		fmt.Fprintf(&b, " wall=%.3fms", v)
	}
	if v, ok := r.num("refs_per_sec"); ok {
		fmt.Fprintf(&b, " refs/s=%.0f", v)
	}
	return b.String()
}
