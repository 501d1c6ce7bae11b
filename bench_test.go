// Benchmarks regenerating every table and figure of the paper, plus
// ablations of the framework's design choices (DESIGN.md section 5).
//
// Each BenchmarkTableN / BenchmarkFigureN measures the cost of recomputing
// that artifact's data series from a profiled workload suite and reports
// the headline value of the series as a custom metric (e.g. the
// best-configuration normalized runtime), so `go test -bench=.` both
// exercises and summarizes the reproduction. Full-resolution output is
// produced by cmd/paperrepro; benchmarks run a reduced but co-scaled
// configuration to stay minutes-scale.
package hybridmem

import (
	"context"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"hybridmem/internal/cache"
	"hybridmem/internal/core"
	"hybridmem/internal/design"
	"hybridmem/internal/exp"
	"hybridmem/internal/model"
	"hybridmem/internal/report"
	"hybridmem/internal/reuse"
	"hybridmem/internal/tech"
	"hybridmem/internal/trace"
	"hybridmem/internal/workload"
	"hybridmem/internal/workload/catalog"
)

// benchConfig is the reduced suite used by the figure benchmarks: the full
// seven-workload suite with co-scaled capacities, shrunk 8x below the
// default experiment size.
var benchConfig = exp.Config{
	Scale:         64,
	WorkloadScale: 512,
}

var (
	benchSuite     *exp.Suite
	benchSuiteOnce sync.Once
	benchSuiteErr  error
)

func suite(b *testing.B) *exp.Suite {
	b.Helper()
	benchSuiteOnce.Do(func() {
		benchSuite, benchSuiteErr = exp.NewSuite(benchConfig)
	})
	if benchSuiteErr != nil {
		b.Fatal(benchSuiteErr)
	}
	return benchSuite
}

// bestRow returns the row with minimum EDP.
func bestRow(rows []exp.Row) exp.Row {
	best := rows[0]
	for _, r := range rows[1:] {
		if r.Avg.NormEDP < best.Avg.NormEDP {
			best = r
		}
	}
	return best
}

// --- Tables ---

func BenchmarkTable1Tech(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := &report.Table{Title: "Table 1", Headers: []string{"tech", "rd", "wr", "rdE", "wrE"}}
		for _, tc := range []tech.Tech{tech.DRAM, tech.PCM, tech.STTRAM, tech.FeRAM, tech.EDRAM, tech.HMC} {
			t.AddRow(tc.Name, fmt.Sprint(tc.ReadNS), fmt.Sprint(tc.WriteNS),
				fmt.Sprint(tc.ReadPJPerBit), fmt.Sprint(tc.WritePJPerBit))
		}
		if _, err := t.WriteTo(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2And3Configs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, c := range design.EHConfigs {
			if _, err := design.EHByName(c.Name); err != nil {
				b.Fatal(err)
			}
		}
		for _, c := range design.NConfigs {
			if _, err := design.NByName(c.Name); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkTable4Workloads(b *testing.B) {
	// Measures building the full Table 4 workload suite (data-structure
	// generation included).
	for i := 0; i < b.N; i++ {
		ws := catalog.All(workload.Options{Scale: 2048})
		if len(ws) != 7 {
			b.Fatal("bad suite")
		}
	}
}

// --- Figures 1-2: NMM ---

func benchNMM(b *testing.B, metric func(model.Evaluation) float64, name string) {
	s := suite(b)
	var rows []exp.Row
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err = s.NMM(tech.PCM)
		if err != nil {
			b.Fatal(err)
		}
	}
	best := bestRow(rows)
	b.ReportMetric(metric(best.Avg), name+"@"+best.Label)
}

func BenchmarkFigure1NMMRuntime(b *testing.B) {
	benchNMM(b, func(e model.Evaluation) float64 { return e.NormTime }, "normTime")
}

func BenchmarkFigure2NMMEnergy(b *testing.B) {
	benchNMM(b, func(e model.Evaluation) float64 { return e.NormEnergy }, "normEnergy")
}

// --- Figures 3-4: 4LC ---

func benchFourLC(b *testing.B, metric func(model.Evaluation) float64, name string) {
	s := suite(b)
	var rows []exp.Row
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err = s.FourLC(tech.EDRAM)
		if err != nil {
			b.Fatal(err)
		}
	}
	best := bestRow(rows)
	b.ReportMetric(metric(best.Avg), name+"@"+best.Label)
}

func BenchmarkFigure3FourLCRuntime(b *testing.B) {
	benchFourLC(b, func(e model.Evaluation) float64 { return e.NormTime }, "normTime")
}

func BenchmarkFigure4FourLCEnergy(b *testing.B) {
	benchFourLC(b, func(e model.Evaluation) float64 { return e.NormEnergy }, "normEnergy")
}

// --- Figures 5-6: 4LCNVM ---

func benchFourLCNVM(b *testing.B, metric func(model.Evaluation) float64, name string) {
	s := suite(b)
	var rows []exp.Row
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err = s.FourLCNVM(tech.EDRAM, tech.PCM)
		if err != nil {
			b.Fatal(err)
		}
	}
	best := bestRow(rows)
	b.ReportMetric(metric(best.Avg), name+"@"+best.Label)
}

func BenchmarkFigure5FourLCNVMRuntime(b *testing.B) {
	benchFourLCNVM(b, func(e model.Evaluation) float64 { return e.NormTime }, "normTime")
}

func BenchmarkFigure6FourLCNVMEnergy(b *testing.B) {
	benchFourLCNVM(b, func(e model.Evaluation) float64 { return e.NormEnergy }, "normEnergy")
}

// --- Figures 7-8: NDM ---

func benchNDM(b *testing.B, metric func(model.Evaluation) float64, name string) {
	s := suite(b)
	var row exp.Row
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, row, err = s.NDM(tech.PCM)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(metric(row.Avg), name)
}

func BenchmarkFigure7NDMRuntime(b *testing.B) {
	benchNDM(b, func(e model.Evaluation) float64 { return e.NormTime }, "normTime")
}

func BenchmarkFigure8NDMEnergy(b *testing.B) {
	benchNDM(b, func(e model.Evaluation) float64 { return e.NormEnergy }, "normEnergy")
}

// --- Figures 9-10: heat maps ---

func BenchmarkFigure9LatencyHeatmap(b *testing.B) {
	s := suite(b)
	var hm *exp.Heatmap
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hm, err = s.LatencyHeatmap(nil, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(hm.At(0, len(hm.ReadMults)-1), "normTime@r20x")
	b.ReportMetric(hm.At(len(hm.WriteMults)-1, 0), "normTime@w20x")
}

func BenchmarkFigure10EnergyHeatmap(b *testing.B) {
	s := suite(b)
	var hm *exp.Heatmap
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hm, err = s.EnergyHeatmap(nil, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(hm.At(0, len(hm.ReadMults)-1), "normEnergy@r20x")
	b.ReportMetric(hm.At(len(hm.WriteMults)-1, 0), "normEnergy@w20x")
}

// --- Ablations (DESIGN.md section 5) ---

// BenchmarkAblationBoundaryReplay quantifies the shared-prefix optimization:
// evaluating a design point by replaying the recorded post-L3 stream versus
// re-simulating the workload through the full hierarchy.
func BenchmarkAblationBoundaryReplay(b *testing.B) {
	w, err := catalog.New("CG", workload.Options{Scale: 512})
	if err != nil {
		b.Fatal(err)
	}
	wp, err := exp.ProfileWorkload(w, 64, exp.DefaultDilution)
	if err != nil {
		b.Fatal(err)
	}
	backend := design.DefaultRegistry().NMMWith(design.NConfigs[5], tech.PCM, 64, wp.Footprint)

	b.Run("replay", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := wp.Evaluate(backend); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("full-resimulation", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			prefix, err := design.DefaultRegistry().BuildPrefix(64)
			if err != nil {
				b.Fatal(err)
			}
			built, err := backend.Build()
			if err != nil {
				b.Fatal(err)
			}
			// Chain prefix onto the backend via a full hierarchy.
			mem := core.NewSimpleMemory("m", tech.PCM, wp.Footprint)
			levels := prefix
			dc := design.DefaultRegistry().NMMWith(design.NConfigs[5], tech.PCM, 64, wp.Footprint).Caches[0]
			c := cache.New(cache.Config{Name: dc.Name, Size: dc.Size, LineSize: dc.Line, Assoc: dc.Assoc})
			levels = append(levels, core.Level{Cache: c, Tech: dc.Tech})
			h, err := core.NewHierarchy(levels, mem)
			if err != nil {
				b.Fatal(err)
			}
			w.Run(h)
			h.Flush()
			_ = built
		}
	})
}

// BenchmarkBoundaryReplayScalar replays a profiled workload's boundary
// store one reference at a time: one-reference batches through the
// trace.Sink interface, the baseline the batch walk is measured against.
// Both replay benchmarks read the same packed boundary store (the only
// boundary representation the harness keeps), so the refs/s difference
// isolates delivery mode: an interface dispatch per reference here versus
// one per decoded block in BenchmarkBoundaryReplayBatch.
func BenchmarkBoundaryReplayScalar(b *testing.B) {
	s := suite(b)
	wp := s.Profiles[0]
	backend := design.DefaultRegistry().Reference(wp.Footprint)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		built, err := backend.Build()
		if err != nil {
			b.Fatal(err)
		}
		var sink trace.Sink = built
		wp.Boundary.Batches(nil, func(refs []trace.Ref) error {
			for j := range refs {
				sink.AccessBatch(refs[j : j+1])
			}
			return nil
		})
		built.Flush()
	}
	b.ReportMetric(float64(wp.Boundary.Len())*float64(b.N)/b.Elapsed().Seconds(), "refs/s")
}

// BenchmarkBoundaryReplayBatch replays the same boundary store the way the
// harness now does: each decoded block flows through the batch entry point
// (core.Hierarchy.AccessBatch) with the level walk hoisted out of the
// per-reference boundary. The refs/s metric is directly comparable to
// BenchmarkBoundaryReplayScalar; packedB/ref is the resident boundary-store
// cost per reference (16 B/ref raw).
func BenchmarkBoundaryReplayBatch(b *testing.B) {
	s := suite(b)
	wp := s.Profiles[0]
	backend := design.DefaultRegistry().Reference(wp.Footprint)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		built, err := backend.Build()
		if err != nil {
			b.Fatal(err)
		}
		built.Replay(wp.Boundary)
	}
	b.ReportMetric(float64(wp.Boundary.Len())*float64(b.N)/b.Elapsed().Seconds(), "refs/s")
	b.ReportMetric(float64(wp.Boundary.PackedBytes())/float64(wp.Boundary.Len()), "packedB/ref")
}

// BenchmarkFanoutReplay contrasts the two ways to evaluate one workload's
// Table 3 design points: the shared-decode fan-out (each packed block
// decoded once and broadcast to every design point over the block ring)
// versus the historical per-design replay (each design point decodes the
// whole stream privately). refs/s counts references replayed across all
// design points, so the two sub-benchmarks are directly comparable;
// decodes/ref is the number of block decodes amortized per replayed
// reference (1 for the private path, 1/width for the fan-out).
func BenchmarkFanoutReplay(b *testing.B) {
	s := suite(b)
	wp := s.Profiles[0]
	var backends []design.Backend
	for _, cfg := range design.NConfigs {
		backends = append(backends, design.DefaultRegistry().NMMWith(cfg, tech.PCM, 64, wp.Footprint))
	}
	refs := float64(wp.Boundary.Len()) * float64(len(backends))
	b.Run("shared", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, r := range wp.EvaluateFanout(context.Background(), backends) {
				if r.Err != nil {
					b.Fatal(r.Err)
				}
			}
		}
		b.ReportMetric(refs*float64(b.N)/b.Elapsed().Seconds(), "refs/s")
		b.ReportMetric(1/float64(len(backends)), "decodes/ref")
	})
	b.Run("perdesign", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, bk := range backends {
				if _, err := wp.EvaluateSerialCtx(context.Background(), bk); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(refs*float64(b.N)/b.Elapsed().Seconds(), "refs/s")
		b.ReportMetric(1, "decodes/ref")
	})
}

// TestAnalyticSpeedupFloor enforces the two-fidelity acceptance criterion
// in the regular test suite: screening a design point from the sketch must
// be at least 100x cheaper than exact replay of the same point (the
// benchmarks above measure the real ratio, ~1000x and up; the floor here is
// deliberately slack so CI load cannot flake it).
func TestAnalyticSpeedupFloor(t *testing.T) {
	s, err := exp.NewSuite(exp.Config{
		Scale: 64, WorkloadScale: 1024, Workloads: []string{"CG"}, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	wp := s.Profiles[0]
	bk := design.DefaultRegistry().NMMWith(design.NConfigs[5], tech.PCM, 64, wp.Footprint)
	pred, err := wp.Predictor()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pred.Predict(bk); err != nil { // warm up
		t.Fatal(err)
	}
	const preds = 200
	start := time.Now()
	for i := 0; i < preds; i++ {
		if _, err := pred.Predict(bk); err != nil {
			t.Fatal(err)
		}
	}
	analytic := time.Since(start) / preds
	start = time.Now()
	if _, err := wp.EvaluateSerialCtx(context.Background(), bk); err != nil {
		t.Fatal(err)
	}
	replay := time.Since(start)
	t.Logf("replay %v vs analytic %v per design point (%.0fx)",
		replay, analytic, float64(replay)/float64(analytic))
	if replay < 100*analytic {
		t.Errorf("analytic fast path only %.0fx faster than replay (floor 100x)",
			float64(replay)/float64(analytic))
	}
}

// BenchmarkAnalyticPredict is the fast half of the two-fidelity pipeline:
// it evaluates the same nine NMM/PCM design points as BenchmarkFanoutReplay
// from the workload's reuse sketch alone — no boundary replay. Compare
// ns/designpt here against FanoutReplay's wall clock divided by its nine
// design points: the acceptance gate requires the analytic path to be at
// least 1000x cheaper per design point (see TestAnalyticSpeedupFloor).
func BenchmarkAnalyticPredict(b *testing.B) {
	s := suite(b)
	wp := s.Profiles[0]
	var backends []design.Backend
	for _, cfg := range design.NConfigs {
		backends = append(backends, design.DefaultRegistry().NMMWith(cfg, tech.PCM, 64, wp.Footprint))
	}
	pred, err := wp.Predictor()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, bk := range backends {
			if _, err := pred.Predict(bk); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(b.Elapsed().Seconds()*1e9/float64(b.N*len(backends)), "ns/designpt")
}

// benchSketch keeps BenchmarkSketcher's result live.
var benchSketch *reuse.Sketch

// BenchmarkSketcher is the sketch rung of the layer ladder: a
// default-granularity reuse.Sketcher over CG's boundary stream at capacity
// scale 64 (workload scale 1024, the bench configuration), decoded into
// memory up front so only the sketch pass is timed. ns/ref is per boundary
// reference across all seven granularities.
func BenchmarkSketcher(b *testing.B) {
	w, err := catalog.New("CG", workload.Options{Scale: 1024})
	if err != nil {
		b.Fatal(err)
	}
	wp, err := exp.ProfileWorkload(w, 64, exp.DefaultDilution)
	if err != nil {
		b.Fatal(err)
	}
	var blocks [][]trace.Ref
	wp.Boundary.Batches(nil, func(refs []trace.Ref) error {
		blocks = append(blocks, append([]trace.Ref(nil), refs...))
		return nil
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := reuse.NewSketcher()
		if err != nil {
			b.Fatal(err)
		}
		for _, refs := range blocks {
			s.AccessBatch(refs)
		}
		benchSketch = s.Sketch()
	}
	b.ReportMetric(b.Elapsed().Seconds()*1e9/float64(b.N*wp.Boundary.Len()), "ns/ref")
}

// BenchmarkAblationPageGranularity shows the cost/benefit of page-organized
// caching: replaying the same boundary stream into DRAM caches with 64B
// versus 4KB pages, reporting the hit rates.
func BenchmarkAblationPageGranularity(b *testing.B) {
	s := suite(b)
	wp := s.Profiles[0]
	for _, page := range []uint64{64, 4096} {
		b.Run(fmt.Sprintf("page%d", page), func(b *testing.B) {
			backend := design.Backend{
				Name: "ablation",
				Caches: []design.LevelSpec{{
					Name: "DRAM$", Tech: tech.DRAM,
					Size: 512 << 20 / 64, Line: page, Assoc: 16,
				}},
				Memory: design.MemorySpec{Name: "NVM", Tech: tech.PCM, Capacity: wp.Footprint},
			}
			var hitRate float64
			for i := 0; i < b.N; i++ {
				built, err := backend.Build()
				if err != nil {
					b.Fatal(err)
				}
				built.Replay(wp.Boundary)
				hitRate = built.Levels()[0].Stats.HitRate()
			}
			b.ReportMetric(hitRate, "hitRate")
		})
	}
}

// BenchmarkAblationDirtySectorWriteback contrasts sector-granular dirty
// write-backs (what the simulator does) with whole-page write-backs (what a
// naive model would charge) in PCM write energy, on a real boundary stream.
func BenchmarkAblationDirtySectorWriteback(b *testing.B) {
	s := suite(b)
	wp := s.Profiles[0]
	backend := design.DefaultRegistry().NMMWith(design.NConfigs[0], tech.PCM, 64, wp.Footprint) // 4KB pages
	var sectorJ, pageJ float64
	for i := 0; i < b.N; i++ {
		built, err := backend.Build()
		if err != nil {
			b.Fatal(err)
		}
		built.Replay(wp.Boundary)
		snap := built.Snapshot()
		mem := snap[len(snap)-1]
		// Sector accounting: bits actually recorded.
		sectorJ = tech.PCM.AccessPJ(mem.Stats.StoreBits, true) * 1e-12
		// Whole-page accounting: every write-back charged 4KB.
		pageJ = tech.PCM.AccessPJ(mem.Stats.Stores*4096*8, true) * 1e-12
	}
	b.ReportMetric(sectorJ, "sectorJ")
	b.ReportMetric(pageJ, "wholePageJ")
}

// BenchmarkAblationDilution quantifies the L1-hit dilution factor's effect
// on the reference AMAT (the full-stream weighting correction).
func BenchmarkAblationDilution(b *testing.B) {
	w, err := catalog.New("BT", workload.Options{Scale: 512})
	if err != nil {
		b.Fatal(err)
	}
	for _, d := range []int{0, 6, 12} {
		b.Run(fmt.Sprintf("dilution%d", d), func(b *testing.B) {
			var amat float64
			for i := 0; i < b.N; i++ {
				wp, err := exp.ProfileWorkload(w, 64, d)
				if err != nil {
					b.Fatal(err)
				}
				amat = wp.ReferenceProfile().AMATNanos()
			}
			b.ReportMetric(amat, "refAMATns")
		})
	}
}

// BenchmarkAblationWorkers measures the worker-pool sweep at different
// parallelism levels.
func BenchmarkAblationWorkers(b *testing.B) {
	s := suite(b)
	var jobs []exp.Job
	for _, cfg := range design.NConfigs {
		for _, wp := range s.Profiles {
			jobs = append(jobs, exp.Job{WP: wp, B: design.DefaultRegistry().NMMWith(cfg, tech.PCM, 64, wp.Footprint)})
		}
	}
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := exp.RunJobs(context.Background(), jobs, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Microbenchmarks of the simulator core ---

func BenchmarkCacheAccess(b *testing.B) {
	c := cache.New(cache.Config{Name: "bench", Size: 1 << 20, LineSize: 64, Assoc: 8})
	addrs := make([]uint64, 4096)
	state := uint64(0x12345)
	for i := range addrs {
		state = state*6364136223846793005 + 1442695040888963407
		addrs[i] = (state >> 16) % (4 << 20)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(addrs[i%len(addrs)], 8, i%4 == 0)
	}
}

func BenchmarkHierarchyAccess(b *testing.B) {
	prefix, err := design.DefaultRegistry().BuildPrefix(64)
	if err != nil {
		b.Fatal(err)
	}
	h, err := core.NewHierarchy(prefix, core.NewSimpleMemory("m", tech.DRAM, 1<<30))
	if err != nil {
		b.Fatal(err)
	}
	state := uint64(7)
	var one [1]trace.Ref
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		state = state*6364136223846793005 + 1442695040888963407
		one[0] = trace.Ref{Addr: (state >> 16) % (64 << 20), Size: 8, Kind: trace.Kind(i & 1)}
		h.AccessBatch(one[:])
	}
}

func BenchmarkWorkloadGeneration(b *testing.B) {
	for _, name := range []string{"BT", "CG", "Hashing"} {
		b.Run(name, func(b *testing.B) {
			w, err := catalog.New(name, workload.Options{Scale: 2048})
			if err != nil {
				b.Fatal(err)
			}
			var c trace.Counter
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Reset()
				w.Run(&c)
			}
			b.ReportMetric(float64(c.Total()), "refs")
		})
	}
}
