package exp

import (
	"context"
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
	// (design.Backend.Relabel) — serving keeps it to answer the class
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

// fanWorker is one replay class's state inside a fan-out: the leader design
// point it builds and replays, and the followers that share its replay key
// and take its statistics under their own labels.
type fanWorker struct {
	idx    int // the leader's index into the backends/results slices
	target replayTarget
	in     chan *fanBlock
	err    error
	// name is the leader's design name, and label the panic-recovery
	// operation name, precomputed at setup so the per-block replay path
	// stays allocation-free.
	name, label string
	// key is the leader's replay key; keyed is false for a design point
	// that replays alone (see design.Backend.ReplayKey).
	key   string
	keyed bool
	// followers are the indices of the design points answered by this
	// worker's replay, and snap the replay's back-end snapshot.
	followers []int
	snap      []core.LevelStats
}

// classOf returns the worker already replaying the class with the given
// key, or nil. A fan-out seats at most a few dozen classes, so a scan beats
// a map.
func classOf(workers []*fanWorker, key string) *fanWorker {
	for _, w := range workers {
		if w.keyed && w.key == key {
			return w
		}
	}
	return nil
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
// read-only ring slot and broadcast to one replay worker per replay class,
// replacing len(backends) full decodes with one. Design points with the
// same replay key (design.Backend.ReplayKey: the same cache geometry over a
// plain terminal) form one class: the first that builds replays, and the
// rest build nothing and take its statistics under their own labels
// (design.Backend.Relabel), so a class costs one replay however many
// technologies it spans. Results come back in backends order; a failing
// design point (build error, replay panic, model error) carries its own Err
// without disturbing its siblings — a failed worker keeps draining the ring
// so the broadcast never stalls — and a follower fails with its own Build
// error before its leader's replay error. Cancelling ctx stops the decoder
// at the next block boundary and marks every still-healthy design point
// with ctx.Err().
//
// Blocks are immutable while shared: the decoder is the only writer, and it
// only reuses a slot after every worker has released it (fanBlock.pending
// reaching zero), so workers need no copies and no locks.
func (wp *WorkloadProfile) EvaluateFanout(ctx context.Context, backends []design.Backend) []FanoutResult {
	results := make([]FanoutResult, len(backends))
	if len(backends) == 0 {
		return results
	}
	start := time.Now()
	workers := make([]*fanWorker, 0, len(backends))
	for i, b := range backends {
		key, keyed := b.ReplayKey()
		if keyed {
			if w := classOf(workers, key); w != nil {
				w.followers = append(w.followers, i)
				continue
			}
		}
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
			name:   b.Name,
			label:  "evaluate " + b.Name + " on " + wp.Name,
			key:    key,
			keyed:  keyed,
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
	for _, w := range workers {
		if w.err == nil {
			w.err = ctxErr
		}
		w.drain()
		results[w.idx] = wp.finishFanout(ctx, w, backends[w.idx], false, len(workers), decoded, start)
		for _, i := range w.followers {
			if err := backends[i].Check(); err != nil {
				results[i] = FanoutResult{Err: err}
				continue
			}
			results[i] = wp.finishFanout(ctx, w, backends[i], true, len(workers), decoded, start)
			if results[i].Err == nil {
				replaysShared.Add(1)
			}
		}
	}
	finishStop()
	return results
}

// fanWidthHist tracks how many replay workers each fan-out broadcast every
// decoded block to — one per replay class, so decodes per replayed
// reference is 1/width. Exposed on /metrics as hybridmem_fan_width.
var fanWidthHist = obs.NewHistogram("hybridmem.fan_width",
	"Replay workers sharing one boundary-stream decode per fan-out replay.")

// replaysShared counts design points answered by another design point's
// replay: the followers of a replay class here, and serve's answers from
// its replay-snapshot tier, which count in the same registered counter.
// Exposed on /metrics as hybridmem_replays_shared.
var replaysShared = obs.NewCounter("hybridmem.replays_shared")

// drain flushes the worker's back end into snap, or records in err the
// panic that ended it.
func (w *fanWorker) drain() {
	if w.err != nil {
		return
	}
	defer fault.RecoverTo(&w.err, w.label)
	w.target.Flush()
	w.snap = w.target.Snapshot()
}

// finishFanout turns the snapshot of w's replay into design point b's
// evaluation — b is w's leader, or a follower that takes the snapshot under
// its own labels (design.Backend.Relabel) — and emits the design_point
// run-log event, tagged with a child span of ctx's trace so a served
// request's design points correlate back to its trace_id.
func (wp *WorkloadProfile) finishFanout(ctx context.Context, w *fanWorker, b design.Backend, follower bool, width, blocks int, start time.Time) (res FanoutResult) {
	if w.err != nil {
		return FanoutResult{Err: w.err}
	}
	defer fault.RecoverTo(&res.Err, w.label)
	snap := w.snap
	if follower {
		snap = b.Relabel(snap)
	}
	ev, err := wp.EvaluateProfile(b.Name, snap)
	if err != nil {
		return FanoutResult{Err: err}
	}
	var fs *fault.Stats
	if fm, ok := w.target.Memory().(*fault.Memory); ok {
		s := fm.FaultStats()
		fs = &s
		ev.Fault = s
	}
	if wp.log != nil {
		f := obs.ThroughputFields(uint64(wp.Boundary.Len()), time.Since(start))
		obs.ChildSpanIfTraced(ctx).Annotate(f)
		f["workload"] = wp.Name
		f["design"] = b.Name
		f["replayed_by"] = w.name
		f["decode_shared"] = true
		f["fan_width"] = width
		f["blocks"] = blocks
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
	return FanoutResult{Eval: ev, Snap: snap}
}
