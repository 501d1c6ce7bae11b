package main

import (
	"runtime"
	"testing"
)

// tinyConfig shrinks the fixed configuration so a test runs each workload
// in a second or two: two small workloads at a 4x smaller footprint, ten
// grid points, and small explore and cold-store rounds.
var tinyConfig = config{
	Scale:         64,
	WorkloadScale: 4096,
	Suite:         []string{"CG", "SP"},
	Hot:           []string{"CG", "SP"},
	Store:         []string{"CG", "SP"},
	GridPoints:    10,
	Candidates:    200,
	Promote:       2,
	ColdRound:     6,
	Setups:        1,
}

// medianRatio repeats f, which returns a (parts, whole) timing pair, and
// returns the median of parts/whole.
func medianRatio(t *testing.T, reps int, f func() (parts, whole float64)) float64 {
	t.Helper()
	var ratios []float64
	for i := 0; i < reps; i++ {
		parts, whole := f()
		ratios = append(ratios, parts/whole)
	}
	return median(ratios)
}

// TestProfileLayersSumToProfile is the offline analogue of the serving
// layer's stage-coverage test: emit, prefix, sketch and reference replay
// must account for the whole exp.ProfileWorkloadOpts call to within 20%.
func TestProfileLayersSumToProfile(t *testing.T) {
	for _, name := range tinyConfig.Suite {
		ratio := medianRatio(t, 5, func() (float64, float64) {
			pt, _, err := profileLayers(tinyConfig, name)
			if err != nil {
				t.Fatal(err)
			}
			return pt.emit + pt.prefix + pt.sketch + pt.reference, pt.profile
		})
		if ratio < 0.8 || ratio > 1.2 {
			t.Errorf("%s: profiling rungs sum to %.2f of exp.profile_s, want within 20%%", name, ratio)
		}
	}
}

// TestReplayLayersSumToRunJobs checks that decode (once per fan-out chunk),
// every design's replay and every model evaluation account for RunJobs'
// busy time to within 20%. On one processor, busy time is wall time.
func TestReplayLayersSumToRunJobs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, name := range tinyConfig.Suite {
		_, wp, err := profileLayers(tinyConfig, name)
		if err != nil {
			t.Fatal(err)
		}
		designs, err := ladderDesigns(11, tinyConfig.Scale, wp.Footprint, 3)
		if err != nil {
			t.Fatal(err)
		}
		designs = designs[:10]
		ratio := medianRatio(t, 5, func() (float64, float64) {
			rt, _, err := replayLayers(wp, designs)
			if err != nil {
				t.Fatal(err)
			}
			if len(rt.mismatched) > 0 {
				t.Fatalf("%s: RunJobs differs from isolated replay for %v", name, rt.mismatched)
			}
			return rt.parts(), rt.runJobs
		})
		if ratio < 0.8 || ratio > 1.2 {
			t.Errorf("%s: replay rungs sum to %.2f of RunJobs busy time, want within 20%%", name, ratio)
		}
	}
}

// TestTracedRunReportsEveryLayerMetric runs a traced tiny sweep, which ends
// with the ladder, and checks that every per-layer metric is measured and
// every time is positive.
func TestTracedRunReportsEveryLayerMetric(t *testing.T) {
	_, wr := tinyRun(t, workloads[0], 3, true)
	for _, d := range perLayer {
		if d.Unit == "s" && !(wr.Metrics[d.Name].Value > 0) {
			t.Errorf("%s = %g, want a positive time", d.Name, wr.Metrics[d.Name].Value)
		}
	}
}
