package main

import (
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"testing"
	"time"
)

// tinyRun measures one workload at tinyConfig, traced or not, and returns
// the run and its result.
func tinyRun(t *testing.T, wl workloadDef, seed uint64, traced bool) (*run, workloadRun) {
	t.Helper()
	// One pass or round of each offline and cold-store phase; the hot
	// loop needs some time to send anything.
	seconds := time.Nanosecond
	if wl.name == "serve_hot" {
		seconds = 300 * time.Millisecond
	}
	r := newRun(tinyConfig, seed, seconds, traced, t.TempDir())
	wr, _, err := measure(r, wl)
	if err != nil {
		t.Fatalf("%s: %v", wl.name, err)
	}
	if !wr.Correct {
		t.Fatalf("%s: %d of %d operations failed", wl.name, wr.Failed, wr.Attempted)
	}
	return r, wr
}

// TestTinyRunsRepeat checks determinism: two runs of each workload with one
// seed give identical simulation counts and result digests.
func TestTinyRunsRepeat(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			a, _ := tinyRun(t, wl, 7, false)
			b, _ := tinyRun(t, wl, 7, false)
			if a.digest == "" || a.digest != b.digest {
				t.Errorf("digests %q and %q differ", a.digest, b.digest)
			}
			for _, m := range []string{"sim.boundary_refs", "sim.replayed_refs"} {
				if a.values[m] != b.values[m] {
					t.Errorf("%s: %g then %g", m, a.values[m], b.values[m])
				}
			}
		})
	}
}

// TestSeedChangesInputs checks that the seeded workloads answer different
// designs under another seed.
func TestSeedChangesInputs(t *testing.T) {
	for _, wl := range workloads {
		if wl.name != "explore_analytic" && wl.name != "serve_cold_store" {
			continue
		}
		a, _ := tinyRun(t, wl, 7, false)
		if b, _ := tinyRun(t, wl, 8, false); a.digest == b.digest {
			t.Errorf("%s: seeds 7 and 8 give the same digest", wl.name)
		}
	}
}

// benchmarkJSON is the layout of the repository's BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []map[string]any `json:"per_layer"`
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json and the program's
// workload and metric tables the same.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	for k := range keys {
		if !slices.Contains([]string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}, k) {
			t.Errorf("unexpected key %q", k)
		}
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(b.Command, []string{"bash", "bench/run.sh"}) || !slices.Equal(b.Paths, []string{"bench"}) ||
		b.RunSeconds != defaultSeconds {
		t.Errorf("command %v, paths %v, run_seconds %d", b.Command, b.Paths, b.RunSeconds)
	}
	names := map[string]bool{}
	for _, w := range workloads {
		names[w.name] = true
	}
	if len(names)+len(metricByName) != len(workloads)+len(endToEnd)+len(perLayer) {
		t.Error("a workload or metric name is used twice")
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, program has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why || len(w.Why) > 200 || !nameRE.MatchString(w.Name) {
			t.Errorf("workload %d: %q / %q does not match the program's %q", i, w.Name, w.Why, workloads[i].name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, program has %d", len(b.EndToEnd), len(endToEnd))
	}
	maxBound := 0.0
	for i, m := range b.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound == nil || *m.Bound != d.Bound {
			t.Errorf("end_to_end %d: %+v does not match %+v", i, m, d)
		}
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) || d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end_to_end %s: bad name, unit or bound", m.Name)
		}
		maxBound = max(maxBound, d.Bound)
	}
	if metricByName["setup_s"].Bound != maxBound {
		t.Errorf("setup_s bound %g is not the largest (%g)", metricByName["setup_s"].Bound, maxBound)
	}
	if len(b.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics, program has %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		d := perLayer[i]
		if len(m) != 3 || m["name"] != d.Name || m["unit"] != d.Unit || m["better"] != d.Better {
			t.Errorf("per_layer %d: %v does not match %+v", i, m, d)
		}
		if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) {
			t.Errorf("per_layer %s: bad name or unit", d.Name)
		}
	}
}
