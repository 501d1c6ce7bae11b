// Package exp is the experiment harness: it reproduces every table and
// figure of the paper's evaluation (Section V) on top of the simulator,
// model, design-space, and workload packages.
//
// The harness exploits the fact that all of the paper's designs share the
// same L1/L2/L3 SRAM prefix: each workload is simulated through the prefix
// once, recording the post-L3 boundary stream, and every design point is
// then evaluated by replaying that recorded stream into just the design's
// back end. Replays of independent design points run on a bounded worker
// pool.
package exp

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"hybridmem/internal/analytic"
	"hybridmem/internal/core"
	"hybridmem/internal/design"
	"hybridmem/internal/fault"
	"hybridmem/internal/model"
	"hybridmem/internal/obs"
	"hybridmem/internal/reuse"
	"hybridmem/internal/tech"
	"hybridmem/internal/trace"
	"hybridmem/internal/workload"
	"hybridmem/internal/workload/catalog"
)

// Config sizes an experiment run.
type Config struct {
	// Ctx carries the run's observability context — a root span and stage
	// accumulator from obs.StartTrace/obs.ContextWithStages — through
	// profiling and replay, so offline sweeps get the same per-stage
	// timing breakdown and trace-tagged run-log events as served requests.
	// Nil means context.Background() (no tracing, no breakdown).
	Ctx context.Context
	// Scale is the design-space capacity divisor (see package design).
	// Zero means design.DefaultScale.
	Scale uint64
	// WorkloadScale is the workload footprint divisor. Zero means Scale.
	// Experiments meant to match the paper keep the two equal (the
	// co-scaling argument); tests may shrink workloads further.
	WorkloadScale uint64
	// Iters overrides workload iteration counts (0 = defaults).
	Iters int
	// Workers bounds replay parallelism. Zero means GOMAXPROCS.
	Workers int
	// Workloads selects a subset of catalog.Names. Empty means all.
	Workloads []string
	// Dilution is the number of synthetic L1-hit references accounted per
	// traced reference. The paper's PEBIL framework instruments every
	// memory operand of every instruction — including stack, scalar, and
	// loop-control references that virtually always hit L1 — whereas our
	// kernels emit only their data-structure references. Dilution restores
	// the paper's full-stream AMAT weighting analytically (the synthetic
	// references are pure L1 hits, so they never change routing below L1).
	// Zero means DefaultDilution; use NoDilution to disable.
	Dilution int
	// Epoch enables epoch-sampled time-series capture during workload
	// profiling: every Epoch references the prefix simulation's statistics
	// are snapshotted into the profile's Series. Zero disables sampling.
	Epoch uint64
	// Log receives structured JSONL run events (workload profiling spans,
	// per-design-point timing and throughput). Nil disables logging.
	Log *obs.Logger
	// Catalog selects the technology catalog backing the suite: the shared
	// SRAM prefix, the reference DRAM, and the implicit DRAM in every
	// figure sweep resolve from it. Nil means the builtin catalog
	// (byte-for-byte the paper's Table 1).
	Catalog *tech.Catalog
}

// DefaultDilution is the default ratio of untraced (always-L1-hit)
// references to traced data references.
const DefaultDilution = 12

// NoDilution disables dilution.
const NoDilution = -1

// withDefaults resolves zero fields.
func (c Config) withDefaults() Config {
	if c.Scale == 0 {
		c.Scale = design.DefaultScale
	}
	if c.WorkloadScale == 0 {
		c.WorkloadScale = c.Scale
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if len(c.Workloads) == 0 {
		c.Workloads = catalog.Names
	}
	if c.Dilution == 0 {
		c.Dilution = DefaultDilution
	}
	if c.Dilution < 0 {
		c.Dilution = 0
	}
	return c
}

// WorkloadProfile is one workload's reusable simulation state: its shared
// SRAM-prefix statistics, the recorded post-L3 boundary stream, and the
// cached reference-system evaluation.
type WorkloadProfile struct {
	Name      string
	Footprint uint64
	// RefTime is the paper's Table 4 reference runtime: T_ref of
	// equation (1), and the time over which static power is integrated.
	// Note this reproduces the paper's accounting faithfully: static
	// energy covers the full application runtime while dynamic energy
	// comes from the reduced-iteration simulated stream (EXPERIMENTS.md
	// discusses the implications).
	RefTime time.Duration
	Regions []workload.Region

	// Prefix holds L1/L2/L3 statistics from the full-stream simulation.
	Prefix []core.LevelStats
	// Boundary is the recorded post-L3 stream (loads = L3 fetches,
	// stores = dirty L3 evictions), held in its packed delta-encoded form —
	// a few bytes per reference instead of 16 — and decoded block by block
	// into reusable batch buffers at replay time.
	Boundary *trace.Packed
	// TotalRefs is the workload's reference count (AMAT denominator).
	TotalRefs uint64
	// Series is the epoch time-series of the prefix simulation, captured
	// when profiling ran with ProfileOptions.Epoch > 0 (nil otherwise).
	Series *obs.Series
	// Sketch is the boundary stream's multi-granularity reuse sketch, the
	// input of the analytic fast path (package analytic). Captured by
	// default (see ProfileOptions.NoSketch) and persisted in the profile
	// manifest, so restored profiles answer analytic queries with zero
	// replay. Nil when capture was disabled or the manifest predates it.
	Sketch *reuse.Sketch

	// refProfile is the reference system's full profile (prefix +
	// footprint-sized DRAM), computed once.
	refProfile model.Profile
	// log receives per-design-point events from Evaluate (may be nil).
	log *obs.Logger
}

// ProfileOptions configures a single-workload profiling pass.
type ProfileOptions struct {
	// Scale is the design-space capacity divisor.
	Scale uint64
	// Dilution adds that many synthetic always-L1-hit references per
	// traced reference (see Config.Dilution); 0 means none.
	Dilution int
	// Epoch samples the prefix simulation every Epoch references into the
	// profile's Series. Zero disables sampling.
	Epoch uint64
	// Log receives profiling spans and later per-design-point events.
	Log *obs.Logger
	// Catalog backs the SRAM prefix and reference DRAM. Nil means the
	// builtin catalog.
	Catalog *tech.Catalog
	// NoSketch disables reuse-sketch capture. The sketch costs one extra
	// in-memory pass over the (already recorded) boundary stream, 0.3–0.7
	// µs per boundary reference over all seven granularities: about half
	// of profiling, 0.85–1.2 s of the 1.6–2.2 s that all seven Table 4
	// workloads take at scale 64, workload scale 1024 on a 2-vCPU Xeon.
	// The workload_profile event's sketch_ms field reports it per
	// workload. Capture defaults to on, since the analytic path needs it.
	NoSketch bool
}

// registryFor resolves a catalog (nil = builtin) to a design registry.
func registryFor(cat *tech.Catalog) (*design.Registry, error) {
	if cat == nil {
		return design.DefaultRegistry(), nil
	}
	return design.NewRegistry(cat)
}

// ProfileWorkload runs w once through the shared SRAM prefix, recording the
// boundary stream, and evaluates the reference back end. dilution adds that
// many synthetic always-L1-hit references per traced reference (see
// Config.Dilution); pass 0 for none.
func ProfileWorkload(w workload.Workload, scale uint64, dilution int) (*WorkloadProfile, error) {
	return ProfileWorkloadOpts(context.Background(), w, ProfileOptions{Scale: scale, Dilution: dilution})
}

// ProfileWorkloadOpts is ProfileWorkload with observability options: epoch
// sampling of the prefix stream and structured run logging. A kernel panic
// (e.g. a typed workload.RegionError from an out-of-region reference)
// is recovered into the returned error; the process survives.
//
// ctx carries the caller's observability context: when it holds an active
// span (obs.StartTrace), the workload_profile run-log events are tagged
// with the trace. Callers owning a stage breakdown time the call themselves
// (the "profile" stage), since a cached or deduplicated profile costs them
// wait time, not simulation time. The profiling simulation itself runs to
// completion regardless of ctx cancellation (its cost is paid once and
// shared; see serve.Evaluator).
func ProfileWorkloadOpts(ctx context.Context, w workload.Workload, opt ProfileOptions) (wp *WorkloadProfile, err error) {
	defer fault.RecoverTo(&err, "profile "+w.Name())
	reg, err := registryFor(opt.Catalog)
	if err != nil {
		return nil, err
	}
	prefix, err := reg.BuildPrefix(opt.Scale)
	if err != nil {
		return nil, err
	}
	rec := core.NewRecordingMemory(design.CacheLine)
	h, err := core.NewHierarchy(prefix, rec)
	if err != nil {
		return nil, err
	}

	var sampler *obs.EpochSampler
	var sink trace.Sink = h
	if opt.Epoch > 0 {
		sampler = obs.NewEpochSampler(h, opt.Epoch)
		sink = sampler
	}
	spanFields := obs.Fields{
		"workload": w.Name(), "scale": opt.Scale, "dilution": opt.Dilution,
	}
	obs.ChildSpanIfTraced(ctx).Annotate(spanFields)
	done := opt.Log.Span("workload_profile", spanFields)
	start := time.Now()
	w.Run(sink)
	if sampler != nil {
		sampler.Flush()
	} else {
		h.Flush()
		obs.CountRefs(h.Refs())
	}
	boundary := rec.Stream()

	var sketch *reuse.Sketch
	sketchStart := time.Now()
	if !opt.NoSketch {
		sketcher, err := reuse.NewSketcher()
		if err != nil {
			return nil, err
		}
		buf := replayBufPool.Get().([]trace.Ref)
		err = boundary.Batches(buf, func(refs []trace.Ref) error {
			sketcher.AccessBatch(refs)
			return nil
		})
		replayBufPool.Put(buf)
		if err != nil {
			return nil, fmt.Errorf("exp: sketching %s: %w", w.Name(), err)
		}
		sketch = sketcher.Sketch()
	}
	sketchTime := time.Since(sketchStart)

	f := obs.ThroughputFields(h.Refs(), time.Since(start))
	f["boundary_refs"] = boundary.Len()
	f["boundary_packed_bytes"] = boundary.PackedBytes()
	f["boundary_raw_bytes"] = boundary.RawBytes()
	f["sketch"] = sketch != nil
	f["sketch_ms"] = float64(sketchTime) / float64(time.Millisecond)
	done(f)

	wp = &WorkloadProfile{
		Name:      w.Name(),
		Footprint: w.Footprint(),
		RefTime:   w.RefTime(),
		Regions:   w.Regions(),
		Prefix:    h.Levels(),
		Boundary:  boundary,
		TotalRefs: h.Refs(),
		Sketch:    sketch,
		log:       opt.Log,
	}
	if sampler != nil {
		wp.Series = sampler.Series()
	}
	if opt.Dilution > 0 {
		extra := wp.TotalRefs * uint64(opt.Dilution)
		l1 := &wp.Prefix[0].Stats
		l1.Loads += extra
		l1.LoadHits += extra
		l1.LoadBits += extra * 64 // 8-byte scalar loads
		wp.TotalRefs += extra
	}

	refBackend, err := reg.Reference(wp.Footprint).Build()
	if err != nil {
		return nil, err
	}
	refBackend.Replay(wp.Boundary)
	wp.refProfile = wp.profileWith(refBackend.Snapshot())
	return wp, nil
}

// profileWith merges the prefix statistics with a back end's snapshot.
func (wp *WorkloadProfile) profileWith(backend []core.LevelStats) model.Profile {
	return model.Profile{
		Levels:    append(append([]core.LevelStats(nil), wp.Prefix...), backend...),
		TotalRefs: wp.TotalRefs,
	}
}

// Predictor returns the analytic fast-path predictor over the profile's
// sketch: it shares the profile's prefix statistics, reference profile, and
// reference runtime with the exact path, so analytic and replayed
// evaluations of the same design normalize against the same baseline. It
// errors when the profile carries no sketch (ProfileOptions.NoSketch, or a
// profile restored from a pre-sketch manifest).
func (wp *WorkloadProfile) Predictor() (*analytic.Predictor, error) {
	return wp.PredictorWith(0)
}

// PredictorWith is Predictor with an explicit per-cell write-endurance
// override for NVM lifetime estimates (cmd/explore's -endurance flag); zero
// selects the per-technology default (wear.EnduranceFor).
func (wp *WorkloadProfile) PredictorWith(enduranceWrites float64) (*analytic.Predictor, error) {
	return analytic.New(analytic.Input{
		Workload:        wp.Name,
		Sketch:          wp.Sketch,
		Prefix:          wp.Prefix,
		TotalRefs:       wp.TotalRefs,
		RefProfile:      wp.refProfile,
		RefTime:         wp.RefTime,
		EnduranceWrites: enduranceWrites,
	})
}

// ReferenceProfile returns the cached reference-system profile.
func (wp *WorkloadProfile) ReferenceProfile() model.Profile { return wp.refProfile }

// ReferenceEvaluation returns the reference system's absolute metrics.
func (wp *WorkloadProfile) ReferenceEvaluation() model.Evaluation {
	return model.EvaluateReference(wp.Name, wp.refProfile, wp.RefTime)
}

// Evaluate replays the boundary stream into a fresh instance of the given
// back end and applies the full model against the reference. When the
// profile carries a run logger, each design point emits a "design_point"
// event with its wall-clock time and boundary-replay throughput.
func (wp *WorkloadProfile) Evaluate(b design.Backend) (model.Evaluation, error) {
	return wp.EvaluateCtx(context.Background(), b)
}

// replayBufPool recycles block-sized decode buffers across EvaluateCtx
// calls, so concurrent replay workers each borrow one resident buffer
// instead of allocating a fresh 1 MiB slice per design point.
var replayBufPool = sync.Pool{
	New: func() any { return make([]trace.Ref, 0, trace.BlockRefs) },
}

// EvaluateCtx is Evaluate with cooperative cancellation: the packed
// boundary stream decodes and replays one block at a time, checking
// ctx.Err() between blocks, so server request timeouts genuinely stop
// in-flight simulation work instead of letting it run to completion.
//
// EvaluateCtx is also a resilience boundary: a panic raised during replay
// (a typed wear.LineError, workload.RegionError, or any other defect in a
// design point) is recovered into a *fault.PanicError return, so one bad
// design point fails its own evaluation instead of killing the worker pool.
// When the backend injects device faults (design.Backend.Fault), the
// terminal's fault counters are copied into the evaluation's Fault field and
// logged with the design_point event.
//
// EvaluateCtx is a width-1 fan-out (see EvaluateFanout); RunJobs batches
// same-workload design points into wider fans that share each block decode.
func (wp *WorkloadProfile) EvaluateCtx(ctx context.Context, b design.Backend) (model.Evaluation, error) {
	r := wp.EvaluateFanout(ctx, []design.Backend{b})[0]
	return r.Eval, r.Err
}

// EvaluateSerialCtx is the historical single-design replay path: it decodes
// the packed boundary stream privately (no sharing, no worker goroutines)
// and replays it into b, with the same cancellation and panic-recovery
// semantics as EvaluateCtx. It is retained as the bit-identical equivalence
// baseline for the fan-out engine (see TestFanoutMatchesSerial) and as the
// per-design-decode comparator in BenchmarkFanoutReplay.
func (wp *WorkloadProfile) EvaluateSerialCtx(ctx context.Context, b design.Backend) (ev model.Evaluation, err error) {
	defer fault.RecoverTo(&err, "evaluate "+b.Name+" on "+wp.Name)
	var start time.Time
	if wp.log != nil {
		start = time.Now()
	}
	built, err := b.Build()
	if err != nil {
		return model.Evaluation{}, err
	}
	buf := replayBufPool.Get().([]trace.Ref)
	err = wp.Boundary.Batches(buf, func(refs []trace.Ref) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		built.AccessBatch(refs)
		return nil
	})
	replayBufPool.Put(buf)
	if err != nil {
		return model.Evaluation{}, err
	}
	built.Flush()
	p := wp.profileWith(built.Snapshot())
	ev, err = model.Evaluate(b.Name, wp.Name, wp.refProfile, wp.RefTime, p)
	var fs *fault.Stats
	if fm, ok := built.Memory().(*fault.Memory); ok && err == nil {
		s := fm.FaultStats()
		fs = &s
		ev.Fault = s
	}
	if wp.log != nil && err == nil {
		f := obs.ThroughputFields(uint64(wp.Boundary.Len()), time.Since(start))
		obs.ChildSpanIfTraced(ctx).Annotate(f)
		f["workload"] = wp.Name
		f["design"] = b.Name
		f["decode_shared"] = false
		f["norm_time"] = ev.NormTime
		f["norm_energy"] = ev.NormEnergy
		f["norm_edp"] = ev.NormEDP
		if fs != nil {
			f["fault_corrected"] = fs.Corrected
			f["fault_uncorrected"] = fs.Uncorrected
			f["fault_stuck_lines"] = fs.StuckLines
			f["fault_retired_pages"] = fs.RetiredPages
			f["fault_remapped"] = fs.Remapped
		}
		wp.log.Event("design_point", f)
	}
	return ev, err
}

// EvaluateProfile applies the model to an analytically constructed back-end
// snapshot (used by the NDM oracle and the heat maps, which do not need a
// replay).
func (wp *WorkloadProfile) EvaluateProfile(name string, backend []core.LevelStats) (model.Evaluation, error) {
	p := wp.profileWith(backend)
	return model.Evaluate(name, wp.Name, wp.refProfile, wp.RefTime, p)
}

// Suite is a profiled workload set ready to evaluate design points.
type Suite struct {
	Cfg      Config
	Profiles []*WorkloadProfile

	// ctx is the run's observability context (Config.Ctx resolved against
	// context.Background()); the figure sweeps pass it to RunJobs so replay
	// stages and trace IDs accumulate on the run's breakdown.
	ctx context.Context
	// reg is the design registry over Config.Catalog (builtin when nil);
	// every sweep resolves its implicit DRAM through it.
	reg *design.Registry
}

// Ctx returns the suite's resolved observability context.
func (s *Suite) Ctx() context.Context { return s.ctx }

// Registry returns the design registry the suite builds design points with.
func (s *Suite) Registry() *design.Registry { return s.reg }

// NewSuite builds and profiles the configured workloads.
func NewSuite(cfg Config) (*Suite, error) {
	cfg = cfg.withDefaults()
	ctx := cfg.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	reg, err := registryFor(cfg.Catalog)
	if err != nil {
		return nil, err
	}
	s := &Suite{Cfg: cfg, ctx: ctx, reg: reg}
	suiteFields := obs.Fields{
		"workloads": cfg.Workloads, "scale": cfg.Scale, "workload_scale": cfg.WorkloadScale,
	}
	obs.ChildSpanIfTraced(ctx).Annotate(suiteFields)
	done := cfg.Log.Span("suite_profile", suiteFields)
	var totalRefs uint64
	start := time.Now()
	for _, name := range cfg.Workloads {
		w, err := catalog.New(name, workload.Options{Scale: cfg.WorkloadScale, Iters: cfg.Iters})
		if err != nil {
			return nil, err
		}
		stop := obs.TimeStage(ctx, "profile")
		wp, err := ProfileWorkloadOpts(ctx, w, ProfileOptions{
			Scale: cfg.Scale, Dilution: cfg.Dilution, Epoch: cfg.Epoch, Log: cfg.Log,
			Catalog: cfg.Catalog,
		})
		stop()
		if err != nil {
			return nil, fmt.Errorf("exp: profiling %s: %w", name, err)
		}
		totalRefs += wp.TotalRefs
		s.Profiles = append(s.Profiles, wp)
	}
	done(obs.ThroughputFields(totalRefs, time.Since(start)))
	return s, nil
}
