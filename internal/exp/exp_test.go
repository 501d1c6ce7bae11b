package exp

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"sync"
	"testing"

	"hybridmem/internal/design"
	"hybridmem/internal/ndm"
	"hybridmem/internal/obs"
	"hybridmem/internal/tech"
	"hybridmem/internal/workload"
	"hybridmem/internal/workload/catalog"
)

// testConfig keeps integration tests fast: tiny workloads under the scaled
// design space.
var testConfig = Config{
	Scale:         64,
	WorkloadScale: 2048,
	Workloads:     []string{"CG", "Hashing"},
	Workers:       2,
}

var (
	sharedSuite     *Suite
	sharedSuiteOnce sync.Once
	sharedSuiteErr  error
)

// suite returns a lazily built shared Suite for read-only use.
func suite(t *testing.T) *Suite {
	t.Helper()
	sharedSuiteOnce.Do(func() {
		sharedSuite, sharedSuiteErr = NewSuite(testConfig)
	})
	if sharedSuiteErr != nil {
		t.Fatal(sharedSuiteErr)
	}
	return sharedSuite
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Scale != design.DefaultScale {
		t.Errorf("Scale = %d", c.Scale)
	}
	if c.WorkloadScale != c.Scale {
		t.Errorf("WorkloadScale = %d", c.WorkloadScale)
	}
	if c.Workers <= 0 {
		t.Errorf("Workers = %d", c.Workers)
	}
	if len(c.Workloads) != len(catalog.Names) {
		t.Errorf("Workloads = %v", c.Workloads)
	}
}

func TestProfileWorkloadBasics(t *testing.T) {
	s := suite(t)
	for _, wp := range s.Profiles {
		if wp.TotalRefs == 0 {
			t.Fatalf("%s: no refs", wp.Name)
		}
		if wp.Boundary.Len() == 0 {
			t.Fatalf("%s: empty boundary stream", wp.Name)
		}
		if uint64(wp.Boundary.Len()) >= wp.TotalRefs {
			t.Fatalf("%s: boundary (%d) not smaller than total (%d)", wp.Name, wp.Boundary.Len(), wp.TotalRefs)
		}
		if wp.Footprint == 0 || len(wp.Regions) == 0 {
			t.Fatalf("%s: missing metadata", wp.Name)
		}
	}
}

// TestProfileEventSketchTime checks that the workload_profile span reports
// the sketch pass's share of its wall time and the resolved dilution.
func TestProfileEventSketchTime(t *testing.T) {
	w, err := catalog.New("CG", workload.Options{Scale: 4096})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := ProfileWorkloadOpts(context.Background(), w, ProfileOptions{
		Scale: 64, Log: obs.NewLogger(&buf),
	}); err != nil {
		t.Fatal(err)
	}
	var start, end map[string]any
	for _, line := range bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n")) {
		var e map[string]any
		if err := json.Unmarshal(line, &e); err != nil {
			t.Fatal(err)
		}
		switch e["event"] {
		case "workload_profile_start":
			start = e
		case "workload_profile_end":
			end = e
		}
	}
	ms, ok := end["sketch_ms"].(float64)
	wall, _ := end["wall_ms"].(float64)
	if !ok || ms <= 0 || ms > wall {
		t.Errorf("sketch_ms = %v, want within (0, wall_ms = %g]: %v", end["sketch_ms"], wall, end)
	}
	if d, _ := start["dilution"].(float64); d != DefaultDilution {
		t.Errorf("dilution 0 logged as %v, want %d", start["dilution"], DefaultDilution)
	}
}

// TestDilutionAccounting pins the one dilution convention: 0 is
// DefaultDilution, NoDilution is the raw profile, and n > 0 adds n
// always-L1-hit loads per traced reference without touching the boundary
// stream or the sketch.
func TestDilutionAccounting(t *testing.T) {
	w, err := catalog.New("CG", workload.Options{Scale: 4096})
	if err != nil {
		t.Fatal(err)
	}
	profile := func(dilution int) *WorkloadProfile {
		wp, err := ProfileWorkload(w, 64, dilution)
		if err != nil {
			t.Fatal(err)
		}
		return wp
	}
	raw, zero, def, diluted := profile(NoDilution), profile(0), profile(DefaultDilution), profile(4)
	if !reflect.DeepEqual(zero.Manifest(), def.Manifest()) {
		t.Fatal("dilution 0 profile differs from DefaultDilution's")
	}
	for n, wp := range map[int]*WorkloadProfile{DefaultDilution: def, 4: diluted} {
		if wp.TotalRefs != uint64(n+1)*raw.TotalRefs {
			t.Fatalf("dilution %d: refs = %d, want %dx %d", n, wp.TotalRefs, n+1, raw.TotalRefs)
		}
		// Dilution must not change the boundary stream or its sketch.
		if wp.Boundary.Len() != raw.Boundary.Len() || !reflect.DeepEqual(wp.Sketch, raw.Sketch) {
			t.Fatalf("dilution %d changed the boundary stream or sketch", n)
		}
		// Extra refs are all L1 load hits.
		extra := wp.TotalRefs - raw.TotalRefs
		if wp.Prefix[0].Stats.LoadHits-raw.Prefix[0].Stats.LoadHits != extra {
			t.Fatalf("dilution %d refs not recorded as L1 load hits", n)
		}
		// Diluted AMAT is strictly smaller (more L1-latency weight).
		if wp.ReferenceProfile().AMATNanos() >= raw.ReferenceProfile().AMATNanos() {
			t.Fatalf("dilution %d should lower reference AMAT", n)
		}
	}
}

func TestReferenceEvaluatesToUnity(t *testing.T) {
	s := suite(t)
	wp := s.Profiles[0]
	ev, err := wp.Evaluate(design.DefaultRegistry().Reference(wp.Footprint))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ev.NormTime-1) > 1e-9 || math.Abs(ev.NormEnergy-1) > 1e-9 {
		t.Fatalf("reference backend should normalize to 1: %+v", ev)
	}
	ref := wp.ReferenceEvaluation()
	if ref.NormTime != 1 || ref.RuntimeSec != wp.RefTime.Seconds() {
		t.Fatalf("ReferenceEvaluation = %+v", ref)
	}
}

func TestEvaluateIsRepeatable(t *testing.T) {
	s := suite(t)
	wp := s.Profiles[0]
	b := design.DefaultRegistry().NMMWith(design.NConfigs[5], tech.PCM, s.Cfg.Scale, wp.Footprint)
	e1, err := wp.Evaluate(b)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := wp.Evaluate(b)
	if err != nil {
		t.Fatal(err)
	}
	if e1 != e2 {
		t.Fatalf("evaluation not deterministic:\n%+v\n%+v", e1, e2)
	}
}

func TestRunJobsOrderAndParallel(t *testing.T) {
	s := suite(t)
	var jobs []Job
	var wantDesigns []string
	for _, cfg := range design.NConfigs[:4] {
		for _, wp := range s.Profiles {
			b := design.DefaultRegistry().NMMWith(cfg, tech.PCM, s.Cfg.Scale, wp.Footprint)
			jobs = append(jobs, Job{WP: wp, B: b})
			wantDesigns = append(wantDesigns, b.Name)
		}
	}
	results, err := RunJobs(context.Background(), jobs, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(jobs) {
		t.Fatalf("got %d results", len(results))
	}
	for i, ev := range results {
		if ev.Design != wantDesigns[i] {
			t.Fatalf("result %d = %q, want %q (order not preserved)", i, ev.Design, wantDesigns[i])
		}
		if ev.NormTime <= 0 {
			t.Fatalf("result %d has zero time", i)
		}
	}
}

func TestRunJobsPropagatesErrors(t *testing.T) {
	s := suite(t)
	bad := design.Backend{
		Name:   "broken",
		Caches: []design.LevelSpec{{Name: "x", Tech: tech.EDRAM, Size: 100, Line: 64, Assoc: 1}}, // size not multiple of line
		Memory: design.MemorySpec{Name: "m", Tech: tech.DRAM, Capacity: 1},
	}
	_, err := RunJobs(context.Background(), []Job{{WP: s.Profiles[0], B: bad}}, 2)
	if err == nil {
		t.Fatal("broken backend should surface an error")
	}
	var target error = err
	if target == nil || errors.Is(err, nil) {
		t.Fatal("unreachable")
	}
}

func TestRunJobsHonorsCancellation(t *testing.T) {
	s := suite(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before any dispatch
	var jobs []Job
	for _, cfg := range design.NConfigs {
		for _, wp := range s.Profiles {
			jobs = append(jobs, Job{WP: wp, B: design.DefaultRegistry().NMMWith(cfg, tech.PCM, s.Cfg.Scale, wp.Footprint)})
		}
	}
	if _, err := RunJobs(ctx, jobs, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunJobs on cancelled ctx = %v, want context.Canceled", err)
	}
}

func TestEvaluateCtxAbortsReplay(t *testing.T) {
	s := suite(t)
	wp := s.Profiles[0]
	b := design.DefaultRegistry().NMMWith(design.NConfigs[0], tech.PCM, s.Cfg.Scale, wp.Footprint)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := wp.EvaluateCtx(ctx, b); !errors.Is(err, context.Canceled) {
		t.Fatalf("EvaluateCtx on cancelled ctx = %v, want context.Canceled", err)
	}
	// A live context evaluates identically to the ctx-free path.
	e1, err := wp.EvaluateCtx(context.Background(), b)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := wp.Evaluate(b)
	if err != nil {
		t.Fatal(err)
	}
	if e1 != e2 {
		t.Fatalf("EvaluateCtx diverges from Evaluate:\n%+v\n%+v", e1, e2)
	}
}

func TestNMMRows(t *testing.T) {
	s := suite(t)
	rows, err := s.NMM(tech.PCM)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(design.NConfigs) {
		t.Fatalf("got %d rows", len(rows))
	}
	for i, row := range rows {
		if row.Label != design.NConfigs[i].Name {
			t.Errorf("row %d label = %q", i, row.Label)
		}
		if len(row.PerWorkload) != len(s.Profiles) {
			t.Fatalf("row %s has %d workloads", row.Label, len(row.PerWorkload))
		}
		// Average must equal the mean of per-workload values.
		var sum float64
		for _, ev := range row.PerWorkload {
			sum += ev.NormTime
		}
		if math.Abs(row.Avg.NormTime-sum/float64(len(row.PerWorkload))) > 1e-12 {
			t.Errorf("row %s average inconsistent", row.Label)
		}
	}
}

func TestFourLCAndFourLCNVMRows(t *testing.T) {
	s := suite(t)
	flc, err := s.FourLC(tech.EDRAM)
	if err != nil {
		t.Fatal(err)
	}
	if len(flc) != len(design.EHConfigs) {
		t.Fatalf("4LC rows = %d", len(flc))
	}
	fln, err := s.FourLCNVM(tech.EDRAM, tech.STTRAM)
	if err != nil {
		t.Fatal(err)
	}
	if len(fln) != len(design.EHConfigs) {
		t.Fatalf("4LCNVM rows = %d", len(fln))
	}
	// With the same LLC technology, swapping DRAM for slower STT-RAM
	// behind it can only cost time.
	for i := range flc {
		if fln[i].Avg.NormTime < flc[i].Avg.NormTime-1e-9 {
			t.Errorf("%s: 4LCNVM (%.4f) faster than 4LC (%.4f)?", flc[i].Label, fln[i].Avg.NormTime, flc[i].Avg.NormTime)
		}
	}
}

func TestNDMExploration(t *testing.T) {
	s := suite(t)
	results, row, err := s.NDM(tech.PCM)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(s.Profiles) {
		t.Fatalf("NDM results = %d", len(results))
	}
	for _, res := range results {
		if len(res.Placements) == 0 || len(res.Evals) != len(res.Placements) {
			t.Fatalf("%s: %d placements, %d evals", res.Workload, len(res.Placements), len(res.Evals))
		}
		if res.Chosen < 0 || res.Chosen >= len(res.Evals) {
			t.Fatalf("%s: chosen = %d", res.Workload, res.Chosen)
		}
		// The chooser prefers placements moving >= half the footprint.
		var wp *WorkloadProfile
		for _, p := range s.Profiles {
			if p.Name == res.Workload {
				wp = p
			}
		}
		qualifies := false
		for _, p := range res.Placements {
			if p.NVMBytes() >= wp.Footprint/2 {
				qualifies = true
				break
			}
		}
		if qualifies && res.Placements[res.Chosen].NVMBytes() < wp.Footprint/2 {
			t.Errorf("%s: chooser picked trivial placement despite qualifying options", res.Workload)
		}
	}
	if len(row.PerWorkload) != len(s.Profiles) {
		t.Fatalf("figure row has %d workloads", len(row.PerWorkload))
	}
}

func TestLatencyHeatmapShape(t *testing.T) {
	s := suite(t)
	hm, err := s.LatencyHeatmap([]float64{1, 4}, []float64{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(hm.Cells) != 2 || len(hm.Cells[0]) != 2 {
		t.Fatalf("heatmap shape wrong")
	}
	// Monotonicity: higher read latency never reduces runtime.
	if hm.At(0, 1) < hm.At(0, 0) {
		t.Errorf("runtime fell with higher read latency: %g -> %g", hm.At(0, 0), hm.At(0, 1))
	}
	if hm.At(1, 0) < hm.At(0, 0) {
		t.Errorf("runtime fell with higher write latency: %g -> %g", hm.At(0, 0), hm.At(1, 0))
	}
	// The paper's read-dominance finding: scaling reads hurts more than
	// scaling writes by the same factor.
	if hm.At(0, 1) <= hm.At(1, 0) {
		t.Errorf("read latency (%g) should dominate write latency (%g)", hm.At(0, 1), hm.At(1, 0))
	}
}

func TestEnergyHeatmapShape(t *testing.T) {
	s := suite(t)
	hm, err := s.EnergyHeatmap(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(hm.Cells) != len(DefaultMultipliers) {
		t.Fatalf("default grid wrong: %d rows", len(hm.Cells))
	}
	// Energy rises monotonically along the read axis.
	for wi := range hm.WriteMults {
		for ri := 1; ri < len(hm.ReadMults); ri++ {
			if hm.At(wi, ri) < hm.At(wi, ri-1)-1e-12 {
				t.Fatalf("energy not monotone at w%d r%d", wi, ri)
			}
		}
	}
	// All cells are meaningful values. (The absolute 1x/1x level depends
	// on co-scaling, which this deliberately shrunken test config
	// breaks; the co-scaled shape is checked in EXPERIMENTS.md runs.)
	for wi := range hm.WriteMults {
		for ri := range hm.ReadMults {
			if hm.At(wi, ri) <= 0 {
				t.Fatalf("cell (%d,%d) = %g", wi, ri, hm.At(wi, ri))
			}
		}
	}
}

func TestSuiteUnknownWorkload(t *testing.T) {
	_, err := NewSuite(Config{Workloads: []string{"nope"}, WorkloadScale: 4096})
	if err == nil {
		t.Fatal("unknown workload should fail")
	}
}

func TestDynamicNDM(t *testing.T) {
	s := suite(t)
	dyn, err := s.DynamicNDM(tech.PCM, ndm.DynamicConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(dyn.PerWorkload) != len(s.Profiles) || len(dyn.Results) != len(s.Profiles) {
		t.Fatalf("row shape: %d evals, %d results", len(dyn.PerWorkload), len(dyn.Results))
	}
	for i, res := range dyn.Results {
		if res.Epochs == 0 {
			t.Fatalf("%s: no epochs", s.Profiles[i].Name)
		}
		if res.NVMShare < 0 || res.NVMShare > 1 {
			t.Fatalf("%s: NVM share %g", s.Profiles[i].Name, res.NVMShare)
		}
		ev := dyn.PerWorkload[i]
		if ev.NormTime <= 0 || ev.NormEnergy <= 0 {
			t.Fatalf("%s: evaluation %+v", s.Profiles[i].Name, ev)
		}
		// Dynamic partitioning routes traffic to NVM, so it cannot be
		// faster than the all-DRAM reference.
		if ev.NormTime < 1-1e-9 {
			t.Fatalf("%s: dynamic NDM faster than reference (%g)", s.Profiles[i].Name, ev.NormTime)
		}
	}
}
