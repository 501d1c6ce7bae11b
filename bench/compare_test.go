package main

import (
	"bytes"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// runsOf builds one synthetic run file per value, each holding one workload
// with one metric and the given failure count.
func runsOf(metric string, failed int64, values ...float64) []runFile {
	var out []runFile
	for _, v := range values {
		out = append(out, runFile{Workloads: map[string]workloadRun{
			"serve_hot": {result: result{
				Correct: failed == 0, Attempted: 1000, Failed: failed,
				Metrics: map[string]metricValue{metric: {Value: v, Unit: metricByName[metric].Unit}},
			}},
		}})
	}
	return out
}

// verdictOf compares parent and change values of one metric and returns
// that metric's verdict.
func verdictOf(t *testing.T, metric string, parent, change []float64) string {
	t.Helper()
	for _, row := range compareRuns(runsOf(metric, 0, parent...), runsOf(metric, 0, change...)) {
		if row.metric == metric {
			return row.verdict
		}
	}
	t.Fatalf("no row for %s", metric)
	return ""
}

func TestCompareVerdicts(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	for _, c := range []struct {
		name, metric   string
		parent, change []float64
		want           string
	}{
		{"throughput gain", "designpts_per_s", base, scaled(1.2), verdictImproved},
		{"throughput loss beyond bound", "designpts_per_s", base, scaled(0.7), verdictRegressed},
		{"throughput loss within bound", "designpts_per_s", base, scaled(0.95), verdictUnchanged},
		{"same runs", "designpts_per_s", base, base, verdictUnchanged},
		{"latency gain", "latency_p50_ms", base, scaled(0.8), verdictImproved},
		{"latency loss beyond bound", "latency_p50_ms", base, scaled(1.3), verdictRegressed},
		// 9 of 10 pairs won but the medians sit inside the parent's spread.
		{"gain inside parent spread", "designpts_per_s",
			[]float64{100, 102, 98, 100, 102, 98, 100, 102, 98, 100},
			[]float64{101, 103, 99, 101, 103, 99, 101, 103, 99, 99}, verdictUnchanged},
		{"spread wider than bound", "designpts_per_s",
			[]float64{100, 60, 140, 100, 60, 140, 100, 60, 140, 100},
			[]float64{80, 130, 50, 80, 130, 50, 80, 130, 50, 80}, verdictUnresolved},
		{"spread wider than bound, every change run worse", "designpts_per_s",
			[]float64{100, 130, 160, 100, 130, 160, 100, 130, 160, 100},
			[]float64{40, 60, 80, 40, 60, 80, 40, 60, 80, 40}, verdictRegressed},
		{"per-layer loss", "trace.decode_s", base, scaled(1.5), verdictWorse},
		{"per-layer gain", "trace.decode_s", base, scaled(0.5), verdictImproved},
	} {
		t.Run(c.name, func(t *testing.T) {
			if got := verdictOf(t, c.metric, c.parent, c.change); got != c.want {
				t.Fatalf("verdict %q, want %q", got, c.want)
			}
		})
	}
}

func TestCompareErrorRate(t *testing.T) {
	rows := compareRuns(runsOf("designpts_per_s", 0, 100, 100, 100), runsOf("designpts_per_s", 3, 100, 100, 100))
	var found bool
	for _, row := range rows {
		if row.metric == "error_rate" {
			found = true
			if row.verdict != verdictRegressed {
				t.Fatalf("higher error rate judged %q", row.verdict)
			}
		}
	}
	if !found {
		t.Fatal("no error_rate row")
	}
	if printComparison(&bytes.Buffer{}, rows) != 1 {
		t.Fatal("a higher error rate must exit non-zero")
	}
}

// TestCompareMain drives the command end to end on run files: exit 0 when
// nothing regressed, 1 on a regression, 2 on bad arguments.
func TestCompareMain(t *testing.T) {
	dir := t.TempDir()
	write := func(prefix string, runs []runFile) []string {
		var paths []string
		for i, rf := range runs {
			p := filepath.Join(dir, prefix+strconv.Itoa(i)+".json")
			if err := writeJSON(p, rf); err != nil {
				t.Fatal(err)
			}
			paths = append(paths, p)
		}
		return paths
	}
	parent := write("p", runsOf("latency_p99_ms", 0, 10, 10.2, 9.9, 10.1, 10))
	same := write("s", runsOf("latency_p99_ms", 0, 10.1, 10, 9.8, 10.2, 10))
	slower := write("w", runsOf("latency_p99_ms", 0, 13, 13.1, 12.9, 13.2, 13))

	var out, errOut bytes.Buffer
	if code := compareMain(append(append(parent, "--"), same...), &out, &errOut); code != 0 {
		t.Fatalf("same runs: exit %d\n%s%s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "latency_p99_ms") {
		t.Fatalf("report lacks the metric row:\n%s", out.String())
	}
	out.Reset()
	if code := compareMain(append(append(parent, "--"), slower...), &out, &errOut); code != 1 {
		t.Fatalf("slower runs: exit %d, want 1\n%s", code, out.String())
	}
	if code := compareMain(parent, &out, &errOut); code != 2 {
		t.Fatalf("missing separator: exit %d, want 2", code)
	}
}
