package exp

import (
	"context"
	"maps"
	"sync"
	"sync/atomic"
	"time"

	"hybridmem/internal/core"
	"hybridmem/internal/design"
	"hybridmem/internal/fault"
	"hybridmem/internal/model"
	"hybridmem/internal/obs"
	"hybridmem/internal/trace"
)

// ringBlocks is the depth of the fan-out block ring. Two slots double-buffer
// the pipeline — the decoder fills slot i+1 while the workers replay slot i.
// A deeper ring buys nothing (the decoder is far faster than the slowest
// simulator, so it is never the bottleneck for more than one block) and each
// slot pins a BlockRefs-sized buffer.
const ringBlocks = 2

// fanBlock is one slot of the refcounted block ring. refs holds the decoded
// block and is read-only while pending > 0: the decoder sets pending to the
// fan width before broadcasting, every worker releases its reference after
// replaying (or skipping) the block, and the last release returns the slot
// to the decoder — the only writer — via the free list.
type fanBlock struct {
	refs    []trace.Ref
	pending atomic.Int32
}

// FanoutResult is one design point's outcome from a fan-out replay: its
// evaluation and the back-end snapshot it was computed from, or the error
// (build failure, replay panic, model error, or ctx cancellation) that
// prevented one.
type FanoutResult struct {
	Eval model.Evaluation
	// Snap is the replay's back-end snapshot under the design point's own
	// labels: wp.EvaluateProfile(b.Name, Snap) gives Eval, and so does
	// EvaluateProfile over another member of b's replay class relabelled
	// (design.Backend.Relabel) — ClassCache keeps it to answer the class
	// without a replay. Fault statistics are in Eval alone.
	Snap []core.LevelStats
	Err  error
}

// replayTarget is the surface of *core.Hierarchy the fan-out workers drive.
// It exists as a seam: tests wrap built back ends with misbehaving targets
// to prove that a panicking design point fails alone.
type replayTarget interface {
	AccessBatch([]trace.Ref)
	Flush()
	Snapshot() []core.LevelStats
	Memory() core.Memory
}

// fanoutTargetHook, when non-nil, wraps every built back end before replay.
// Test seam only; nil in production.
var fanoutTargetHook func(b design.Backend, t replayTarget) replayTarget

// fanoutDecodeHook, when non-nil, runs after each block is broadcast. Test
// seam for mid-stream cancellation; nil in production.
var fanoutDecodeHook func(block int)

// fanWorker is one design point's replay inside a fan-out.
type fanWorker struct {
	idx    int // the design point's index into the backends/results slices
	target replayTarget
	in     chan *fanBlock
	err    error
	// label is the panic-recovery operation name, precomputed at setup so
	// the per-block replay path stays allocation-free.
	label string
}

// consume replays one block into the worker's back end, converting a panic
// (a typed wear.LineError, workload.RegionError, or any other defect in the
// design point) into the worker's error.
func (w *fanWorker) consume(refs []trace.Ref) {
	defer fault.RecoverTo(&w.err, w.label)
	w.target.AccessBatch(refs)
}

// EvaluateFanout replays the boundary stream once into a whole set of design
// points: each packed 64K-ref block is decoded exactly once into a shared
// read-only ring slot and broadcast to one replay worker per design point,
// replacing len(backends) full decodes with one. Every design point
// replays: sharing one replay among the members of a replay class is the
// caller's (see RunJobs and ClassCache). Results come back in backends
// order; a failing design point (build error, replay panic, model error)
// carries its own Err without disturbing its siblings — a failed worker
// keeps draining the ring so the broadcast never stalls. Cancelling ctx
// stops the decoder at the next block boundary and marks every
// still-healthy design point with ctx.Err().
//
// Blocks are immutable while shared: the decoder is the only writer, and it
// only reuses a slot after every worker has released it (fanBlock.pending
// reaching zero), so workers need no copies and no locks.
func (wp *WorkloadProfile) EvaluateFanout(ctx context.Context, backends []design.Backend) []FanoutResult {
	results := make([]FanoutResult, len(backends))
	start := time.Now()
	workers := make([]*fanWorker, 0, len(backends))
	for i, b := range backends {
		built, err := b.Build()
		if err != nil {
			results[i] = FanoutResult{Err: err}
			continue
		}
		var t replayTarget = built
		if fanoutTargetHook != nil {
			t = fanoutTargetHook(b, t)
		}
		workers = append(workers, &fanWorker{
			idx:    i,
			target: t,
			in:     make(chan *fanBlock, ringBlocks),
			label:  "evaluate " + b.Name + " on " + wp.Name,
		})
	}
	if len(workers) == 0 {
		return results
	}
	fanWidthHist.Observe(uint64(len(workers)))
	obs.AddStage(ctx, "build", time.Since(start))

	free := make(chan *fanBlock, ringBlocks)
	for i := 0; i < ringBlocks; i++ {
		free <- &fanBlock{refs: replayBufPool.Get().([]trace.Ref)}
	}

	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go func(w *fanWorker) {
			defer wg.Done()
			for blk := range w.in {
				// A failed worker stops simulating but keeps draining its
				// inbox, so the ring keeps cycling for healthy siblings.
				if w.err == nil {
					w.consume(blk.refs)
				}
				if blk.pending.Add(-1) == 0 {
					free <- blk
				}
			}
		}(w)
	}

	// The calling goroutine is the decoder. Worker inboxes are as deep as
	// the ring, and only ringBlocks blocks exist, so the broadcast sends
	// below can never block; the decoder throttles on the free list alone.
	// decodeNS isolates time inside DecodeBlock; the rest of the loop —
	// waiting on the free list — is replay-bound time, so the stage split
	// below charges it to "replay".
	var ctxErr error
	blocks := wp.Boundary.Blocks()
	decoded := 0
	replayStart := time.Now()
	var decodeNS time.Duration
	for i := 0; i < blocks; i++ {
		if ctxErr = ctx.Err(); ctxErr != nil {
			break
		}
		blk := <-free
		t0 := time.Now()
		blk.refs = wp.Boundary.DecodeBlock(i, blk.refs)
		decodeNS += time.Since(t0)
		blk.pending.Store(int32(len(workers)))
		for _, w := range workers {
			w.in <- blk
		}
		decoded++
		if fanoutDecodeHook != nil {
			fanoutDecodeHook(i)
		}
	}
	obs.CountDecodedBlocks(uint64(decoded))
	for _, w := range workers {
		close(w.in)
	}
	wg.Wait()
	obs.AddStage(ctx, "decode", decodeNS)
	obs.AddStage(ctx, "replay", time.Since(replayStart)-decodeNS)
	for i := 0; i < ringBlocks; i++ {
		replayBufPool.Put((<-free).refs)
	}

	finishStop := obs.TimeStage(ctx, "finish")
	src := replaySource{shared: true, width: len(workers), blocks: decoded}
	for _, w := range workers {
		if w.err == nil {
			w.err = ctxErr
		}
		results[w.idx] = wp.finishFanout(ctx, w, backends[w.idx], src, start)
	}
	finishStop()
	return results
}

// fanWidthHist tracks how many replay workers each fan-out broadcast every
// decoded block to, so decodes per replayed reference is 1/width. Exposed
// on /metrics as memsimd_fan_width.
var fanWidthHist = obs.NewHistogram("memsimd.fan_width",
	"Replay workers sharing one boundary-stream decode per fan-out replay.")

// replaysShared counts design points answered by another design point's
// replay of their class (the member step, ClassCache). Exposed on
// /metrics as memsimd_replays_shared.
var replaysShared = obs.NewCounter("memsimd.replays_shared")

// finishFanout flushes w's back end and turns its snapshot into design
// point b's evaluation, emitting its design_point run-log event; a panic
// in the flush is b's error.
func (wp *WorkloadProfile) finishFanout(ctx context.Context, w *fanWorker, b design.Backend, src replaySource, start time.Time) (res FanoutResult) {
	if w.err != nil {
		return FanoutResult{Err: w.err}
	}
	defer fault.RecoverTo(&res.Err, w.label)
	w.target.Flush()
	snap := w.target.Snapshot()
	ev, err := wp.EvaluateProfile(b.Name, snap)
	if err != nil {
		return FanoutResult{Err: err}
	}
	if fm, ok := w.target.Memory().(*fault.Memory); ok {
		ev.Fault = fm.FaultStats()
	}
	src.by = b.Name
	wp.logDesignPoint(ctx, b, ev, src, start)
	return FanoutResult{Eval: ev, Snap: snap}
}

// replaySource says where a design point's statistics came from: design
// by's replay, decoded by a fan-out of width workers (shared) over blocks
// blocks. A class member's answer decoded nothing: width and blocks are 0.
type replaySource struct {
	by            string
	shared        bool
	width, blocks int
}

// logDesignPoint emits b's design_point run-log event, if the profile has a
// run logger, tagged with a child span of ctx's trace so a served request's
// design points correlate back to its trace_id. A design answered by
// another's replay reports refs 0 and no replay throughput.
func (wp *WorkloadProfile) logDesignPoint(ctx context.Context, b design.Backend, ev model.Evaluation, src replaySource, start time.Time) {
	if wp.log == nil {
		return
	}
	f := obs.Fields{"refs": 0, "wall_ms": float64(time.Since(start)) / float64(time.Millisecond)}
	if src.by == b.Name {
		f = obs.ThroughputFields(uint64(wp.Boundary.Len()), time.Since(start))
	}
	obs.ChildSpanIfTraced(ctx).Annotate(f)
	maps.Copy(f, obs.Fields{"workload": wp.Name, "design": b.Name, "replayed_by": src.by,
		"decode_shared": src.shared, "fan_width": src.width, "blocks": src.blocks,
		"norm_time": ev.NormTime, "norm_energy": ev.NormEnergy, "norm_edp": ev.NormEDP})
	if fs := ev.Fault; b.Fault != nil {
		maps.Copy(f, obs.Fields{"fault_corrected": fs.Corrected, "fault_uncorrected": fs.Uncorrected,
			"fault_stuck_lines": fs.StuckLines, "fault_retired_pages": fs.RetiredPages, "fault_remapped": fs.Remapped})
	}
	wp.log.Event("design_point", f)
}
