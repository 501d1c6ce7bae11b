// Package analytic is the fast half of the repository's two-fidelity
// evaluation pipeline: it predicts a design point's full model.Evaluation —
// per-level hit rates, AMAT, dynamic/static energy, EDP, and NVM lifetime —
// from a workload's reuse sketch (package reuse) in microseconds, without
// replaying the boundary stream.
//
// The prediction rests on the stack-distance identity: a fully-associative
// LRU cache of C pages hits exactly the accesses whose reuse distance is
// below C, so one multi-granularity histogram captured at profile time
// answers for every capacity and page size at once. Write-back traffic
// comes from the sketch's dirty-episode histogram: a page stays resident —
// accumulating dirt that one eventual write-back covers — between two
// stores iff every intervening reuse gap is below C, so episode counts are
// exact for fully-associative LRU and the per-episode bytes interpolate
// between the all-stores and distinct-sectors limits.
//
// The model covers every uniform-terminal design with at most one back-end
// cache level — all of the paper's Table 2/3 points. Designs that need
// replay semantics (partitioned NDM terminals, row-buffer timing,
// write-through or prefetching caches) return a typed *UnsupportedError;
// callers fall back to exact replay. The set-associative exact simulator
// (16-way) deviates slightly from the fully-associative assumption; the
// accuracy test in internal/exp pins the observed error.
package analytic

import (
	"fmt"
	"math"
	"time"

	"hybridmem/internal/cache"
	"hybridmem/internal/core"
	"hybridmem/internal/design"
	"hybridmem/internal/model"
	"hybridmem/internal/reuse"
	"hybridmem/internal/wear"
)

// sectorSize is the cache layer's dirty-tracking granularity for the page
// sizes this model supports (see cache.Cache.SectorSize): write-backs move
// whole 64 B sectors, so write traffic is counted in sectors, not payload
// bytes.
const sectorSize = 64

// The predictor's measured accuracy envelope on the paper's Table 2/3
// design grid, pinned as goldens by internal/exp's TestAnalyticAccuracy
// (observed: ≤2.3% per-point AMAT, ≤4.6% per-point EDP, 0.3% mean AMAT).
// cmd/explore quotes the same bounds when reporting predicted-vs-measured
// error for promoted frontier points.
const (
	// AMATTolerance bounds one design point's relative AMAT error.
	AMATTolerance = 0.04
	// EDPTolerance bounds one design point's relative EDP error.
	EDPTolerance = 0.06
	// MeanAMATTolerance bounds the mean relative AMAT error over a
	// design grid.
	MeanAMATTolerance = 0.01
)

// Input is the workload-side state a Predictor needs: the reuse sketch plus
// the same prefix statistics, reference profile, and reference runtime the
// exact path feeds model.Evaluate. exp.WorkloadProfile.Predictor assembles
// it; hand-built Inputs serve tests and restored manifests.
type Input struct {
	// Workload names the workload in evaluations.
	Workload string
	// Sketch is the boundary stream's reuse sketch (required).
	Sketch *reuse.Sketch
	// Prefix holds the shared SRAM-prefix statistics (post-dilution).
	Prefix []core.LevelStats
	// TotalRefs is the workload's reference count (the AMAT denominator,
	// post-dilution); it must match the reference profile's.
	TotalRefs uint64
	// RefProfile is the reference system's profile (normalization basis).
	RefProfile model.Profile
	// RefTime is the paper's Table 4 reference runtime.
	RefTime time.Duration
	// EnduranceWrites overrides the per-cell write endurance used for NVM
	// lifetime. Zero selects wear.EnduranceFor on the terminal's
	// technology name.
	EnduranceWrites float64
}

// Predictor predicts design-point evaluations from one workload's sketch.
// It is immutable after New and safe for concurrent use.
type Predictor struct {
	in Input
}

// New validates the input and returns a predictor.
func New(in Input) (*Predictor, error) {
	if in.Sketch == nil {
		return nil, fmt.Errorf("analytic: workload %q has no sketch (profiled with NoSketch, or restored from a pre-sketch manifest)", in.Workload)
	}
	if err := in.Sketch.Validate(); err != nil {
		return nil, fmt.Errorf("analytic: workload %q: %w", in.Workload, err)
	}
	if in.TotalRefs == 0 {
		return nil, fmt.Errorf("analytic: workload %q input has zero total refs", in.Workload)
	}
	return &Predictor{in: in}, nil
}

// Sketch returns the predictor's underlying sketch.
func (p *Predictor) Sketch() *reuse.Sketch { return p.in.Sketch }

// Prediction is one design point's analytic evaluation.
type Prediction struct {
	// Eval carries the same metrics the exact path produces (AMAT, energy,
	// EDP, normalized columns), computed from the predicted profile.
	Eval model.Evaluation
	// Backend is the synthesized back-end level statistics the evaluation
	// was computed from — the analytic stand-in for replay's Snapshot —
	// exposed so accuracy tests can print per-level deltas.
	Backend []core.LevelStats
	// HasCache reports whether the design has a back-end cache level;
	// CacheHitRate is meaningful only when it does.
	HasCache bool
	// CacheHitRate is the predicted back-end cache hit rate in [0, 1].
	CacheHitRate float64
	// NVMWriteBytesPerSec is the predicted write traffic reaching a
	// non-volatile terminal, averaged over the design's predicted runtime
	// (zero for volatile terminals).
	NVMWriteBytesPerSec float64
	// LifetimeYears estimates the terminal's lifetime under perfect wear
	// leveling at the predicted write rate; +Inf for volatile or
	// effectively unlimited technologies.
	LifetimeYears float64
}

// UnsupportedError reports a design the analytic model cannot screen;
// callers should promote such designs to exact replay.
type UnsupportedError struct {
	// Design is the design point's name.
	Design string
	// Reason says which replay-only mechanism the design depends on.
	Reason string
}

// Error implements error.
func (e *UnsupportedError) Error() string {
	return fmt.Sprintf("analytic: design %s needs exact replay: %s", e.Design, e.Reason)
}

// Predict evaluates one design point analytically. Designs outside the
// model return a typed *UnsupportedError.
func (p *Predictor) Predict(b design.Backend) (*Prediction, error) {
	s := p.in.Sketch
	m := b.Memory
	switch {
	case m.Partitioned:
		return nil, &UnsupportedError{b.Name, "partitioned (NDM) terminal routes by address range"}
	case m.RowBuffer:
		return nil, &UnsupportedError{b.Name, "row-buffer terminal timing depends on access order"}
	case len(b.Caches) > 1:
		return nil, &UnsupportedError{b.Name, fmt.Sprintf("%d back-end cache levels (model handles at most one)", len(b.Caches))}
	}

	pred := &Prediction{}
	// Terminal traffic defaults to the raw boundary stream (exact for
	// cache-less designs, including the reference system).
	memStats := cache.Stats{
		Loads: s.Loads, LoadHits: s.Loads, LoadBits: s.LoadBytes * 8,
		Stores: s.Stores, StoreHits: s.Stores, StoreBits: s.StoreBytes * 8,
	}
	var backend []core.LevelStats

	if len(b.Caches) == 1 {
		c := b.Caches[0]
		switch {
		case c.WriteThrough:
			return nil, &UnsupportedError{b.Name, "write-through cache bypasses the write-allocate episode model"}
		case c.PrefetchNext > 0:
			return nil, &UnsupportedError{b.Name, "prefetching alters the reuse stream"}
		case c.Line < sectorSize:
			return nil, &UnsupportedError{b.Name, fmt.Sprintf("page size %d below the %d B dirty sector", c.Line, sectorSize)}
		}
		gs, ok := s.At(c.Line)
		if !ok {
			return nil, &UnsupportedError{b.Name, fmt.Sprintf("granularity %d B not captured in the sketch", c.Line)}
		}
		pages := c.Size / c.Line
		if pages == 0 {
			return nil, &UnsupportedError{b.Name, "cache smaller than one page"}
		}

		hr := gs.Access.HitRate(pages)
		misses := uint64(math.Round(gs.Misses(pages)))
		episodes := uint64(math.Round(gs.DirtyEpisodes(pages)))
		pred.HasCache, pred.CacheHitRate = true, hr

		backend = append(backend, core.LevelStats{
			Name: c.Name, Tech: c.Tech, Capacity: c.Size,
			Stats: cache.Stats{
				Loads: s.Loads, LoadHits: uint64(math.Round(hr * float64(s.Loads))),
				Stores: s.Stores, StoreHits: uint64(math.Round(hr * float64(s.Stores))),
				LoadBits: s.LoadBytes * 8, StoreBits: s.StoreBytes * 8,
				FillBits:   misses * c.Line * 8,
				WriteBacks: episodes,
			},
		})

		// Every miss fetches one full page from the terminal; every dirty
		// episode eventually writes its dirty sectors back. The per-episode
		// bytes interpolate between the two exact limits: one sector per
		// store at capacity→0, each stored sector once at capacity→∞.
		e0, einf := float64(gs.Dirty.Total), float64(gs.Dirty.Cold)
		wb0 := float64(s.StoreSectors) * sectorSize
		wbInf := float64(s.DistinctStoreLines) * sectorSize
		wbBytes := wbInf
		if e0 > einf {
			frac := (gs.DirtyEpisodes(pages) - einf) / (e0 - einf)
			wbBytes = wbInf + (wb0-wbInf)*frac
		}
		if wbBytes < 0 {
			wbBytes = 0
		}
		memStats = cache.Stats{
			Loads: misses, LoadHits: misses, LoadBits: misses * c.Line * 8,
			Stores: episodes, StoreHits: episodes,
			StoreBits: uint64(math.Round(wbBytes)) * 8,
		}
	}

	backend = append(backend, core.LevelStats{
		Name: m.Name, Tech: m.Tech, Capacity: m.Capacity, Stats: memStats,
	})
	prof := model.Profile{
		Levels:    append(append([]core.LevelStats(nil), p.in.Prefix...), backend...),
		TotalRefs: p.in.TotalRefs,
	}
	ev, err := model.Evaluate(b.Name, p.in.Workload, p.in.RefProfile, p.in.RefTime, prof)
	if err != nil {
		return nil, err
	}
	pred.Eval = ev
	pred.Backend = backend
	pred.LifetimeYears = math.Inf(1)
	if m.Tech.NonVolatile {
		writeBytes := float64(memStats.StoreBits) / 8
		if ev.RuntimeSec > 0 && writeBytes > 0 {
			pred.NVMWriteBytesPerSec = writeBytes / ev.RuntimeSec
			endurance := p.in.EnduranceWrites
			if endurance <= 0 {
				endurance = wear.EnduranceFor(m.Tech.Name)
			}
			// Perfect leveling spreads sector writes uniformly over
			// capacity/sectorSize sectors; lifetime is the time for the
			// mean sector to exhaust its endurance budget.
			sectors := float64(m.Capacity) / sectorSize
			if sectors > 0 && !math.IsInf(endurance, 1) {
				writesPerSec := pred.NVMWriteBytesPerSec / sectorSize
				pred.LifetimeYears = endurance * sectors / writesPerSec / (365.25 * 24 * 3600)
			}
		}
	}
	return pred, nil
}
