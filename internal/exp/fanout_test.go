package exp

import (
	"context"
	"errors"
	"slices"
	"sync"
	"testing"

	"hybridmem/internal/design"
	"hybridmem/internal/fault"
	"hybridmem/internal/tech"
	"hybridmem/internal/trace"
)

var (
	fullSuite     *Suite
	fullSuiteOnce sync.Once
	fullSuiteErr  error
)

// catalogSuite profiles every catalog workload at test scale, shared
// read-only by the fan-out property tests.
func catalogSuite(t *testing.T) *Suite {
	t.Helper()
	fullSuiteOnce.Do(func() {
		fullSuite, fullSuiteErr = NewSuite(Config{Scale: 64, WorkloadScale: 2048, Workers: 2})
	})
	if fullSuiteErr != nil {
		t.Fatal(fullSuiteErr)
	}
	return fullSuite
}

// table23Designs builds every Table 2 (EH1-EH8 x LLC tech) and Table 3
// (N1-N9 x NVM tech) design point for one workload's footprint.
func table23Designs(scale, footprint uint64) []design.Backend {
	var out []design.Backend
	for _, llc := range tech.Builtin().LLCs() {
		for _, cfg := range design.EHConfigs {
			out = append(out, design.DefaultRegistry().FourLCWith(cfg, llc, scale, footprint))
		}
	}
	for _, nvm := range tech.Builtin().NVMs() {
		for _, cfg := range design.NConfigs {
			out = append(out, design.DefaultRegistry().NMMWith(cfg, nvm, scale, footprint))
		}
	}
	return out
}

// TestFanoutMatchesSerial is the fan-out engine's equivalence property: for
// every catalog workload and every Table 2/3 design point, a wide shared-
// decode fan-out must produce the model.Evaluation — all level statistics,
// energy, EDP — bit-identical to the historical per-design serial replay.
func TestFanoutMatchesSerial(t *testing.T) {
	s := catalogSuite(t)
	ctx := context.Background()
	for _, wp := range s.Profiles {
		backends := table23Designs(s.Cfg.Scale, wp.Footprint)
		results := wp.EvaluateFanout(ctx, backends)
		if len(results) != len(backends) {
			t.Fatalf("%s: %d results for %d backends", wp.Name, len(results), len(backends))
		}
		for i, r := range results {
			if r.Err != nil {
				t.Fatalf("%s/%s: fan-out error: %v", wp.Name, backends[i].Name, r.Err)
			}
			want, err := wp.EvaluateSerialCtx(ctx, backends[i])
			if err != nil {
				t.Fatalf("%s/%s: serial error: %v", wp.Name, backends[i].Name, err)
			}
			if r.Eval != want {
				t.Fatalf("%s/%s: fan-out diverges from serial replay:\n fan: %+v\n ser: %+v",
					wp.Name, backends[i].Name, r.Eval, want)
			}
		}
	}
}

// synthBoundary builds a packed stream of exactly `blocks` full 64K-ref
// blocks by cycling src's references, so synthetic profiles replay real
// in-range addresses.
func synthBoundary(src *trace.Packed, blocks int) *trace.Packed {
	refs := src.Refs()
	p := &trace.Packed{}
	want := blocks * trace.BlockRefs
	for n := 0; n < want; n += len(refs) {
		if left := want - n; left < len(refs) {
			refs = refs[:left]
		}
		p.AccessBatch(refs)
	}
	return p
}

// synthProfile clones a real profile with a synthetic multi-block boundary
// stream, no run logger and an identity of its own.
func synthProfile(wp *WorkloadProfile, blocks int) *WorkloadProfile {
	c := *wp
	c.Boundary = synthBoundary(wp.Boundary, blocks)
	c.log, c.id = nil, 0
	return &c
}

// TestFanoutCancelsMidStream cancels the context between ring blocks and
// requires the decoder to stop early with every design point reporting
// context.Canceled.
func TestFanoutCancelsMidStream(t *testing.T) {
	s := catalogSuite(t)
	wp := synthProfile(s.Profiles[0], 4)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var broadcast int
	fanoutDecodeHook = func(block int) {
		broadcast++
		if block == 1 {
			cancel()
		}
	}
	defer func() { fanoutDecodeHook = nil }()

	backends := []design.Backend{
		design.DefaultRegistry().NMMWith(design.NConfigs[0], tech.PCM, s.Cfg.Scale, wp.Footprint),
		design.DefaultRegistry().NMMWith(design.NConfigs[1], tech.PCM, s.Cfg.Scale, wp.Footprint),
		design.DefaultRegistry().NMMWith(design.NConfigs[2], tech.PCM, s.Cfg.Scale, wp.Footprint),
	}
	for i, r := range wp.EvaluateFanout(ctx, backends) {
		if !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("design %d: err = %v, want context.Canceled", i, r.Err)
		}
	}
	if broadcast >= wp.Boundary.Blocks() {
		t.Fatalf("decoder ran to completion (%d blocks) despite cancellation", broadcast)
	}
}

// panicTarget panics on the replay of block `after` (0-based), simulating a
// defective design point mid-stream.
type panicTarget struct {
	replayTarget
	after int
	seen  int
}

func (p *panicTarget) AccessBatch(refs []trace.Ref) {
	if p.seen == p.after {
		panic("defective design point")
	}
	p.seen++
	p.replayTarget.AccessBatch(refs)
}

// TestFanoutPanicFailsAlone injects a design point that panics mid-stream
// and requires it to fail with a *fault.PanicError while its siblings on the
// same block ring complete with results bit-identical to serial replay.
func TestFanoutPanicFailsAlone(t *testing.T) {
	s := catalogSuite(t)
	wp := synthProfile(s.Profiles[0], 4)
	poisoned := design.DefaultRegistry().NMMWith(design.NConfigs[1], tech.PCM, s.Cfg.Scale, wp.Footprint)
	fanoutTargetHook = func(b design.Backend, target replayTarget) replayTarget {
		if b.Name == poisoned.Name {
			return &panicTarget{replayTarget: target, after: 2}
		}
		return target
	}
	defer func() { fanoutTargetHook = nil }()

	backends := []design.Backend{
		design.DefaultRegistry().NMMWith(design.NConfigs[0], tech.PCM, s.Cfg.Scale, wp.Footprint),
		poisoned,
		design.DefaultRegistry().NMMWith(design.NConfigs[2], tech.PCM, s.Cfg.Scale, wp.Footprint),
	}
	results := wp.EvaluateFanout(context.Background(), backends)
	var pe *fault.PanicError
	if !errors.As(results[1].Err, &pe) {
		t.Fatalf("poisoned design err = %v, want *fault.PanicError", results[1].Err)
	}
	fanoutTargetHook = nil
	for _, i := range []int{0, 2} {
		if results[i].Err != nil {
			t.Fatalf("sibling %d failed: %v", i, results[i].Err)
		}
		want, err := wp.EvaluateSerialCtx(context.Background(), backends[i])
		if err != nil {
			t.Fatal(err)
		}
		if results[i].Eval != want {
			t.Fatalf("sibling %d diverged from serial replay after sibling panic", i)
		}
	}
}

// TestFanoutBuildErrorFailsAlone gives one design point an invalid geometry
// and requires only that point to fail.
func TestFanoutBuildErrorFailsAlone(t *testing.T) {
	s := catalogSuite(t)
	wp := s.Profiles[0]
	bad := design.Backend{
		Name:   "broken",
		Caches: []design.LevelSpec{{Name: "x", Tech: tech.EDRAM, Size: 100, Line: 64, Assoc: 1}},
		Memory: design.MemorySpec{Name: "m", Tech: tech.DRAM, Capacity: 1},
	}
	good := design.DefaultRegistry().NMMWith(design.NConfigs[0], tech.PCM, s.Cfg.Scale, wp.Footprint)
	results := wp.EvaluateFanout(context.Background(), []design.Backend{bad, good})
	if results[0].Err == nil {
		t.Fatal("invalid backend built successfully")
	}
	if results[1].Err != nil {
		t.Fatalf("sibling failed with: %v", results[1].Err)
	}
	want, err := wp.EvaluateSerialCtx(context.Background(), good)
	if err != nil {
		t.Fatal(err)
	}
	if results[1].Eval != want {
		t.Fatal("sibling diverged from serial replay next to a build failure")
	}
}

// geometry returns a back end whose one cache level is n lines of 64 B: a
// distinct replay class for each n.
func geometry(n int) design.Backend {
	return design.Backend{Caches: []design.LevelSpec{{Size: 64 * uint64(n), Line: 64, Assoc: 1}}}
}

// TestPlanFanout pins the grouped schedule: grouping by profile, largest
// boundary first, chunks of at most `workers` replay classes, and job order
// preserved within a group. Jobs of distinct geometries are classes of one,
// so chunks count design points; same-geometry jobs share a class and a
// chunk's width counts classes.
func TestPlanFanout(t *testing.T) {
	small := &WorkloadProfile{Name: "small", Boundary: &trace.Packed{}}
	large := &WorkloadProfile{Name: "large", Boundary: &trace.Packed{}}
	for i := 0; i < 10; i++ {
		small.Boundary.Access(trace.Ref{Addr: uint64(i) * 64, Size: 8})
	}
	for i := 0; i < 100; i++ {
		large.Boundary.Access(trace.Ref{Addr: uint64(i) * 64, Size: 8})
	}
	var jobs []Job
	for i := 0; i < 3; i++ {
		jobs = append(jobs, Job{WP: small, B: geometry(1 + i)})
	}
	for i := 0; i < 5; i++ {
		jobs = append(jobs, Job{WP: large, B: geometry(1 + i)})
	}
	check := func(chunks []fanChunk, wantWP []*WorkloadProfile, wantIdxs [][]int, wantWidth []int) {
		t.Helper()
		if len(chunks) != len(wantWP) {
			t.Fatalf("got %d chunks, want %d", len(chunks), len(wantWP))
		}
		for i, ch := range chunks {
			if ch.wp != wantWP[i] {
				t.Fatalf("chunk %d is %s, want %s", i, ch.wp.Name, wantWP[i].Name)
			}
			idxs := slices.Concat(ch.classes...)
			slices.Sort(idxs)
			if !slices.Equal(idxs, wantIdxs[i]) {
				t.Fatalf("chunk %d idxs = %v, want %v", i, idxs, wantIdxs[i])
			}
			if len(ch.classes) != wantWidth[i] {
				t.Fatalf("chunk %d width = %d, want %d", i, len(ch.classes), wantWidth[i])
			}
		}
	}
	check(planFanout(jobs, 2),
		[]*WorkloadProfile{large, large, large, small, small},
		[][]int{{3, 4}, {5, 6}, {7}, {0, 1}, {2}},
		[]int{2, 2, 1, 2, 1})
	// A worker budget above the group size seats a whole group in one chunk:
	// the clamp is against total design points, not groups.
	if chunks := planFanout(jobs, 8); len(chunks) != 2 {
		t.Fatalf("wide budget gave %d chunks, want one per group", len(chunks))
	}

	// Same-geometry jobs collapse into one class: large's five jobs form
	// classes {0,2}, {1}, {3,4} (plus an unkeyed fault design, a class of
	// its own), and each chunk seats two classes with all their jobs.
	shared := []Job{
		{WP: large, B: geometry(1)},
		{WP: large, B: geometry(2)},
		{WP: large, B: geometry(1)},
		{WP: large, B: geometry(3)},
		{WP: large, B: geometry(3)},
		{WP: large, B: geometry(3).WithFault(fault.Config{})},
		{WP: small, B: geometry(1)},
		{WP: small, B: geometry(1)},
	}
	check(planFanout(shared, 2),
		[]*WorkloadProfile{large, large, small},
		[][]int{{0, 1, 2}, {3, 4, 5}, {6, 7}},
		[]int{2, 2, 1})
}

// TestFanoutSteadyStateZeroAllocs pins the per-block cost of the fan-out
// replay loop at zero allocations: two synthetic profiles differing only in
// block count must evaluate with identical allocation totals, so every
// per-call allocation (worker setup, model evaluation) cancels and the
// marginal cost of a streamed block is allocation-free.
func TestFanoutSteadyStateZeroAllocs(t *testing.T) {
	s := catalogSuite(t)
	base := s.Profiles[0]
	smallWP := synthProfile(base, 2)
	largeWP := synthProfile(base, 8)
	b := design.DefaultRegistry().NMMWith(design.NConfigs[0], tech.PCM, s.Cfg.Scale, base.Footprint)
	ctx := context.Background()
	run := func(wp *WorkloadProfile) float64 {
		return testing.AllocsPerRun(3, func() {
			if r := wp.EvaluateFanout(ctx, []design.Backend{b})[0]; r.Err != nil {
				t.Fatal(r.Err)
			}
		})
	}
	small := run(smallWP)
	large := run(largeWP)
	if perBlock := (large - small) / 6; perBlock >= 0.5 {
		t.Fatalf("fan-out replay allocates %.2f times per streamed block (small=%.0f large=%.0f), want 0",
			perBlock, small, large)
	}
}
