// Benchmarks for the extensions beyond the paper (DESIGN.md section 6 /
// EXPERIMENTS.md "Extensions"): dynamic NDM partitioning, wear leveling,
// the row-buffer timing refinement, reuse-distance profiling, the trace
// codec, and multicore L3 contention.
package hybridmem

import (
	"fmt"
	"testing"

	"hybridmem/internal/design"
	"hybridmem/internal/exp"
	"hybridmem/internal/multicore"
	"hybridmem/internal/ndm"
	"hybridmem/internal/reuse"
	"hybridmem/internal/tech"
	"hybridmem/internal/trace"
	"hybridmem/internal/wear"
	"hybridmem/internal/workload"
	"hybridmem/internal/workload/catalog"
)

// BenchmarkExtDynamicNDM measures the epoch-based dynamic partitioning
// sweep and reports its outcome next to the static oracle's.
func BenchmarkExtDynamicNDM(b *testing.B) {
	s := suite(b)
	var dyn exp.DynamicNDMRow
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dyn, err = s.DynamicNDM(tech.PCM, ndm.DynamicConfig{})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	_, static, err := s.NDM(tech.PCM)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(dyn.Avg.NormTime, "dynNormTime")
	b.ReportMetric(static.Avg.NormTime, "oracleNormTime")
	b.ReportMetric(dyn.Avg.NormEnergy, "dynNormEnergy")
}

// BenchmarkExtWearLeveling measures Start-Gap remapping cost and reports
// the wear-imbalance reduction on a hot-line-hammering stream.
func BenchmarkExtWearLeveling(b *testing.B) {
	// A small device (256 frames) so the stream covers several Start-Gap
	// rotations; the scheme levels over full rotations of the device.
	const capacity = 256 * 64
	for _, psi := range []uint64{0, 4} {
		name := "unleveled"
		if psi > 0 {
			name = fmt.Sprintf("startgap-psi%d", psi)
		}
		b.Run(name, func(b *testing.B) {
			var imbalance float64
			for i := 0; i < b.N; i++ {
				m, err := wear.NewMemory("nvm", tech.PCM, capacity, 64, psi)
				if err != nil {
					b.Fatal(err)
				}
				for j := 0; j < 100000; j++ {
					// 90% hot line, 10% spread.
					addr := uint64(0)
					if j%10 == 9 {
						addr = uint64(j) * 64 % capacity
					}
					m.Store(addr, 8)
				}
				imbalance = m.WearStats().Imbalance
			}
			b.ReportMetric(imbalance, "imbalance")
		})
	}
}

// BenchmarkExtRowBuffer compares the flat main-memory timing against the
// open-page row-buffer refinement on a real boundary stream, reporting the
// row hit rate and the AMAT difference.
func BenchmarkExtRowBuffer(b *testing.B) {
	s := suite(b)
	wp := s.Profiles[0]
	flat := design.Reference(wp.Footprint)
	rowbuf := flat.WithRowBuffer()
	b.Run("flat", func(b *testing.B) {
		var amat float64
		for i := 0; i < b.N; i++ {
			ev, err := wp.Evaluate(flat)
			if err != nil {
				b.Fatal(err)
			}
			amat = ev.AMATNanos
		}
		b.ReportMetric(amat, "amatNS")
	})
	b.Run("rowbuffer", func(b *testing.B) {
		var amat float64
		for i := 0; i < b.N; i++ {
			ev, err := wp.Evaluate(rowbuf)
			if err != nil {
				b.Fatal(err)
			}
			amat = ev.AMATNanos
		}
		b.ReportMetric(amat, "amatNS")
	})
}

// BenchmarkExtReuseProfiler measures the reuse-distance profiler (a
// single-granularity Sketcher) over a workload's full stream and reports
// the 90% working set.
func BenchmarkExtReuseProfiler(b *testing.B) {
	w, err := catalog.New("CG", workload.Options{Scale: 2048})
	if err != nil {
		b.Fatal(err)
	}
	var ws uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := reuse.NewSketcher(64)
		if err != nil {
			b.Fatal(err)
		}
		w.Run(s)
		ws = s.Sketch().Grans[0].Access.WorkingSet(0.9)
	}
	b.ReportMetric(float64(ws), "workingSet90lines")
}

// BenchmarkExtTraceCodec measures the packed stream codec — the format the
// store persists boundary streams in — encoding a recorded boundary stream
// record by record and decoding it block by block.
func BenchmarkExtTraceCodec(b *testing.B) {
	s := suite(b)
	refs := s.Profiles[0].Boundary.Refs()
	var p trace.Packed
	for _, r := range refs {
		p.Access(r)
	}
	bytesPerRef := float64(p.PackedBytes()) / float64(len(refs))
	b.Run("encode", func(b *testing.B) {
		b.SetBytes(int64(p.PackedBytes()))
		for i := 0; i < b.N; i++ {
			var enc trace.Packed
			for _, r := range refs {
				enc.Access(r)
			}
		}
		b.ReportMetric(float64(len(refs)), "refs")
		b.ReportMetric(bytesPerRef, "B/ref")
	})
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(int64(p.PackedBytes()))
		buf := make([]trace.Ref, 0, trace.BlockRefs)
		for i := 0; i < b.N; i++ {
			for blk := 0; blk < p.Blocks(); blk++ {
				buf = p.DecodeBlock(blk, buf)
			}
		}
		b.ReportMetric(bytesPerRef, "B/ref")
	})
}

// BenchmarkExtMulticoreContention runs 1 vs 4 cores of the same workload
// over the shared L3 and reports the contended hit rates.
func BenchmarkExtMulticoreContention(b *testing.B) {
	mk := func() workload.Workload {
		w, err := catalog.New("CG", workload.Options{Scale: 4096})
		if err != nil {
			b.Fatal(err)
		}
		return w
	}
	for _, n := range []int{1, 4} {
		b.Run(fmt.Sprintf("cores%d", n), func(b *testing.B) {
			var hit float64
			for i := 0; i < b.N; i++ {
				ws := make([]workload.Workload, n)
				for j := range ws {
					ws[j] = mk()
				}
				res, err := multicore.Run(multicore.Config{Scale: 64}, ws, nil)
				if err != nil {
					b.Fatal(err)
				}
				hit = res.L3HitRate()
			}
			b.ReportMetric(hit, "l3HitRate")
		})
	}
}

// BenchmarkExtWritePolicy contrasts write-back (the paper's assumption)
// with write-through/no-write-allocate for the NMM DRAM cache, reporting
// the NVM store traffic each policy produces — the quantity PCM's 210
// pJ/bit write energy punishes.
func BenchmarkExtWritePolicy(b *testing.B) {
	s := suite(b)
	wp := s.Profiles[0]
	for _, wt := range []bool{false, true} {
		name := "write-back"
		if wt {
			name = "write-through"
		}
		b.Run(name, func(b *testing.B) {
			var nvmStores uint64
			for i := 0; i < b.N; i++ {
				backend := design.NMM(design.NConfigs[5], tech.PCM, 64, wp.Footprint)
				backend.Caches[0].WriteThrough = wt
				built, err := backend.Build()
				if err != nil {
					b.Fatal(err)
				}
				built.Replay(wp.Boundary)
				snap := built.Snapshot()
				nvmStores = snap[len(snap)-1].Stats.Stores
			}
			b.ReportMetric(float64(nvmStores), "nvmStores")
		})
	}
}

// BenchmarkExtPrefetcher measures a next-line prefetcher on the NMM DRAM
// cache: hit-rate gain versus extra NVM read traffic.
func BenchmarkExtPrefetcher(b *testing.B) {
	s := suite(b)
	wp := s.Profiles[0]
	for _, depth := range []int{0, 1, 4} {
		b.Run(fmt.Sprintf("depth%d", depth), func(b *testing.B) {
			var hitRate float64
			var nvmLoads uint64
			for i := 0; i < b.N; i++ {
				backend := design.NMM(design.NConfigs[8], tech.PCM, 64, wp.Footprint) // N9: 64B pages
				backend.Caches[0].PrefetchNext = depth
				built, err := backend.Build()
				if err != nil {
					b.Fatal(err)
				}
				built.Replay(wp.Boundary)
				hitRate = built.Levels()[0].Stats.HitRate()
				snap := built.Snapshot()
				nvmLoads = snap[len(snap)-1].Stats.Loads
			}
			b.ReportMetric(hitRate, "dram$HitRate")
			b.ReportMetric(float64(nvmLoads), "nvmLoads")
		})
	}
}
