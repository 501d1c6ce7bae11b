package exp

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"hybridmem/internal/analytic"
	"hybridmem/internal/core"
	"hybridmem/internal/design"
	"hybridmem/internal/model"
	"hybridmem/internal/tech"
)

// Analytic accuracy: the predictor must track exact replay within pinned
// tolerances on every Table 2/3 design. The residual error is structural —
// the sketch assumes fully-associative LRU while the simulator runs 16-way
// sets, and write-back bytes interpolate between their exact limits — so
// the tolerances below are goldens: they document the model's measured
// accuracy envelope, and a regression in either the sketch or the predictor
// widens the observed error past them.

// accuracyTols is the golden per-family tolerance table (relative error).
// Cached families use the exported envelope cmd/explore quotes.
var accuracyTols = map[string]struct{ amat, edp float64 }{
	"reference": {amat: 1e-9, edp: 1e-9}, // cache-less: analytic is exact
	"4LC":       {amat: analytic.AMATTolerance, edp: analytic.EDPTolerance},
	"NMM":       {amat: analytic.AMATTolerance, edp: analytic.EDPTolerance},
	"4LCNVM":    {amat: analytic.AMATTolerance, edp: analytic.EDPTolerance},
}

// accuracyMeanTol pins the mean relative AMAT error over the whole grid —
// the bound cmd/explore quotes for its promoted frontier points.
const accuracyMeanTol = analytic.MeanAMATTolerance

var (
	accSuite     *Suite
	accSuiteOnce sync.Once
	accSuiteErr  error
)

func accuracySuite(t *testing.T) *Suite {
	t.Helper()
	accSuiteOnce.Do(func() {
		accSuite, accSuiteErr = NewSuite(Config{
			Scale:         64,
			WorkloadScale: 2048,
			Workloads:     []string{"CG", "Hashing", "Graph500"},
			Workers:       2,
		})
	})
	if accSuiteErr != nil {
		t.Fatal(accSuiteErr)
	}
	return accSuite
}

func relErr(pred, exact float64) float64 {
	if exact == 0 {
		if pred == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(pred-exact) / math.Abs(exact)
}

// levelHitRates formats per-level hit rates for failure diagnostics.
func levelHitRates(levels []core.LevelStats) string {
	out := ""
	for _, l := range levels {
		tot := l.Stats.Loads + l.Stats.Stores
		hr := 0.0
		if tot > 0 {
			hr = float64(l.Stats.LoadHits+l.Stats.StoreHits) / float64(tot)
		}
		out += fmt.Sprintf(" %s=%.4f(%d refs)", l.Name, hr, tot)
	}
	return out
}

func TestAnalyticAccuracy(t *testing.T) {
	s := accuracySuite(t)
	reg := s.Registry()

	var sumAMAT float64
	var points int
	check := func(wp *WorkloadProfile, family string, b design.Backend) {
		t.Helper()
		pred, err := wp.Predictor()
		if err != nil {
			t.Fatalf("%s: predictor: %v", wp.Name, err)
		}
		p, err := pred.Predict(b)
		if err != nil {
			t.Fatalf("%s/%s: predict: %v", wp.Name, b.Name, err)
		}
		var exact model.Evaluation
		if family == "reference" {
			exact = wp.ReferenceEvaluation()
		} else {
			exact, err = wp.Evaluate(b)
			if err != nil {
				t.Fatalf("%s/%s: replay: %v", wp.Name, b.Name, err)
			}
		}
		ra := relErr(p.Eval.AMATNanos, exact.AMATNanos)
		re := relErr(p.Eval.EDP, exact.EDP)
		sumAMAT += ra
		points++
		tol := accuracyTols[family]
		if ra > tol.amat || re > tol.edp {
			// Rebuild the exact back end to print per-level hit-rate deltas.
			built, berr := b.Build()
			exactLevels := "(rebuild failed)"
			if berr == nil {
				built.Replay(wp.Boundary)
				built.Flush()
				exactLevels = levelHitRates(built.Snapshot())
			}
			t.Errorf("%s/%s: AMAT err %.4f (tol %.4f), EDP err %.4f (tol %.4f)\n  predicted:%s\n  exact:    %s",
				wp.Name, b.Name, ra, tol.amat, re, tol.edp,
				levelHitRates(p.Backend), exactLevels)
		}
	}

	for _, wp := range s.Profiles {
		check(wp, "reference", reg.Reference(wp.Footprint))
		for _, cfg := range design.EHConfigs {
			for _, llc := range tech.Builtin().LLCs() {
				check(wp, "4LC", reg.FourLCWith(cfg, llc, s.Cfg.Scale, wp.Footprint))
				for _, nvm := range tech.Builtin().NVMs() {
					check(wp, "4LCNVM", design.DefaultRegistry().FourLCNVMWith(cfg, llc, nvm, s.Cfg.Scale, wp.Footprint))
				}
			}
		}
		for _, cfg := range design.NConfigs {
			for _, nvm := range tech.Builtin().NVMs() {
				check(wp, "NMM", reg.NMMWith(cfg, nvm, s.Cfg.Scale, wp.Footprint))
			}
		}
	}
	mean := sumAMAT / float64(points)
	t.Logf("analytic accuracy: %d design points, mean relative AMAT error %.4f", points, mean)
	if mean > accuracyMeanTol {
		t.Errorf("mean relative AMAT error %.4f exceeds golden %.4f", mean, accuracyMeanTol)
	}
}

// TestAnalyticUnsupported pins the typed fallback contract: replay-only
// designs report *analytic.UnsupportedError rather than wrong numbers.
func TestAnalyticUnsupported(t *testing.T) {
	s := accuracySuite(t)
	wp := s.Profiles[0]
	pred, err := wp.Predictor()
	if err != nil {
		t.Fatal(err)
	}
	ndm := design.DefaultRegistry().NDMWith(tech.PCM, nil, wp.Footprint/2, wp.Footprint, "half")
	if _, err := pred.Predict(ndm); err == nil {
		t.Fatal("partitioned NDM terminal should be unsupported")
	} else {
		var ue *analytic.UnsupportedError
		if !errors.As(err, &ue) {
			t.Fatalf("want *analytic.UnsupportedError, got %T: %v", err, err)
		}
	}

	// A profile without a sketch cannot build a predictor.
	noSketch := *wp
	noSketch.Sketch = nil
	if _, err := noSketch.Predictor(); err == nil {
		t.Fatal("sketch-less profile should not yield a predictor")
	}
}
