package exp

import (
	"context"
	"slices"
	"strconv"
	"sync"
	"time"

	"hybridmem/internal/core"
	"hybridmem/internal/design"
	"hybridmem/internal/fault"
	"hybridmem/internal/lru"
	"hybridmem/internal/model"
	"hybridmem/internal/obs"
)

// Job pairs a profiled workload with one design back end to evaluate.
type Job struct {
	WP *WorkloadProfile
	B  design.Backend
}

// fanChunk is one schedulable unit of the grouped plan: up to `workers`
// replay classes of a single workload, each a list of job indices whose
// first job leads the class's replay in one EvaluateFanout call.
type fanChunk struct {
	wp      *WorkloadProfile
	classes [][]int
}

// planFanout turns a flat job list into the fan-out schedule. Jobs are
// grouped by workload profile, and within a group by replay class (jobs
// whose back ends share a design.Backend.ReplayKey; a job without one is a
// class of its own), classes in first-appearance order. Groups are ordered
// largest boundary first — the heaviest stream starts decoding immediately
// instead of serializing the tail behind FIFO arrival order, with ties
// keeping first-appearance order — and each group is split into chunks of
// at most `workers` classes, so a chunk's replay workers can always be
// seated at once on the worker budget however many design points its
// classes hold.
func planFanout(jobs []Job, workers int) []fanChunk {
	type group struct {
		wp      *WorkloadProfile
		classes [][]int        // job indices per replay class
		byKey   map[string]int // index into classes by replay key
	}
	byWP := make(map[*WorkloadProfile]*group, 8)
	ordered := make([]*group, 0, 8)
	for i, j := range jobs {
		g := byWP[j.WP]
		if g == nil {
			g = &group{wp: j.WP, byKey: map[string]int{}}
			byWP[j.WP] = g
			ordered = append(ordered, g)
		}
		key, keyed := j.B.ReplayKey()
		if c, seen := g.byKey[key]; keyed && seen {
			g.classes[c] = append(g.classes[c], i)
			continue
		}
		if keyed {
			g.byKey[key] = len(g.classes)
		}
		g.classes = append(g.classes, []int{i})
	}
	slices.SortStableFunc(ordered, func(a, b *group) int {
		return b.wp.Boundary.Len() - a.wp.Boundary.Len()
	})
	var chunks []fanChunk
	for _, g := range ordered {
		for off := 0; off < len(g.classes); off += workers {
			chunks = append(chunks, fanChunk{wp: g.wp, classes: g.classes[off:min(off+workers, len(g.classes))]})
		}
	}
	return chunks
}

// RunJobs evaluates jobs on a bounded worker pool and returns the
// evaluations in job order. Jobs sharing a WorkloadProfile are grouped into
// fan-out chunks (see planFanout and EvaluateFanout), so each packed
// boundary block is decoded once per chunk, and jobs of one workload that
// share a replay class are replayed once. The worker bound counts replay
// workers, one per replay class in flight. Each replay worker builds its
// own back end and the shared decoded blocks are read-only, so no simulator
// state is shared. The first error stops dispatch and cancels in-flight
// chunks. Every call replays: no snapshot outlives it (a Suite keeps its
// classes across calls).
//
// Cancelling ctx stops dispatching new chunks and aborts in-flight boundary
// replays at the next block boundary; RunJobs then returns ctx.Err(). CLI
// sweeps that have no cancellation story pass context.Background().
func RunJobs(ctx context.Context, jobs []Job, workers int) ([]model.Evaluation, error) {
	return runJobs(ctx, nil, jobs, workers)
}

// runJobs is RunJobs over a class cache (nil for none). A job whose class
// the cache holds is answered through the member step; the leaders of the
// missing classes are planned and replayed, and each chunk adds its
// leaders' snapshots to the cache and answers their followers from them.
func runJobs(ctx context.Context, cache *ClassCache, jobs []Job, workers int) ([]model.Evaluation, error) {
	results := make([]model.Evaluation, len(jobs))
	var miss []Job
	var at []int // at[k] is miss[k]'s index in jobs
	for i, j := range jobs {
		if e, ok := cache.get(j.WP, j.B); ok {
			var err error
			if results[i], err = j.WP.answer(ctx, e, j.B, time.Now()); err != nil {
				return nil, err
			}
			continue
		}
		miss, at = append(miss, j), append(at, i)
	}
	workers = min(max(workers, 1), len(miss))
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		mu       sync.Mutex
		cond     = sync.NewCond(&mu)
		free     = workers
		firstErr error
		stop     bool
	)
	// fail records the first error and stops the run; callers hold mu.
	fail := func(err error) {
		if firstErr == nil {
			firstErr = err
			stop = true
			cancel()
		}
	}

	var wg sync.WaitGroup
	for _, ch := range planFanout(miss, workers) {
		need := len(ch.classes)
		mu.Lock()
		for free < need && !stop {
			cond.Wait()
		}
		if stop {
			mu.Unlock()
			break
		}
		free -= need
		mu.Unlock()
		wg.Add(1)
		go func(ch fanChunk) {
			defer wg.Done()
			err := replayChunk(ctx, cache, ch, miss, at, results)
			mu.Lock()
			if err != nil {
				fail(err)
			}
			free += len(ch.classes)
			mu.Unlock()
			cond.Broadcast()
		}(ch)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return results, nil
}

// replayChunk replays the leaders of ch's classes in one fan-out, adds each
// leader's snapshot to cache and answers the leader's followers from it.
// The answer for job k of miss goes to results[at[k]].
func replayChunk(ctx context.Context, cache *ClassCache, ch fanChunk, miss []Job, at []int, results []model.Evaluation) error {
	leaders := make([]design.Backend, len(ch.classes))
	for k, c := range ch.classes {
		leaders[k] = miss[c[0]].B
	}
	start := time.Now()
	for k, r := range ch.wp.EvaluateFanout(ctx, leaders) {
		if r.Err != nil {
			return r.Err
		}
		cache.add(ch.wp, leaders[k], r.Snap)
		results[at[ch.classes[k][0]]] = r.Eval
		e := classEntry{snap: r.Snap, by: leaders[k].Name}
		for _, m := range ch.classes[k][1:] {
			var err error
			if results[at[m]], err = ch.wp.answer(ctx, e, miss[m].B, start); err != nil {
				return err
			}
		}
	}
	return nil
}

// maxSnapshots bounds a ClassCache. An entry is one replay's back-end
// snapshot, a few hundred bytes, so the cache holds far more replay classes
// than any workload has cache geometries in use.
const maxSnapshots = 4096

// ClassCache holds replay-class snapshots, bounded LRU-first. A replay
// reads only a design's cache geometry (design.Backend.ReplayKey), so one
// replay's snapshot per (profile, replay key) answers every member of the
// class — the geometry under other technologies — relabelled
// (design.Backend.Relabel), with no replay. A nil *ClassCache holds
// nothing. Classes are keyed by the profile's identity, not its workload
// tuple: a profile rebuilt from the same tuple replays its classes again.
type ClassCache struct{ lru *lru.Cache[classEntry] }

// classEntry is one class's snapshot, under the labels of design by, whose
// replay produced it.
type classEntry struct {
	snap []core.LevelStats
	by   string
}

// NewClassCache returns an empty replay-class cache.
func NewClassCache() *ClassCache { return &ClassCache{lru: lru.New[classEntry](maxSnapshots)} }

// Len returns how many replay classes the cache holds.
func (c *ClassCache) Len() int { return c.lru.Len() }

// profileIDs hands out profile identities; its lock also guards every
// WorkloadProfile.id.
var profileIDs struct {
	sync.Mutex
	last uint64
}

// identity returns wp's process-unique id, assigned on first use so a
// profile literal has one too. Unlike an address it is never reused, and
// keying on it does not pin the profile.
func (wp *WorkloadProfile) identity() uint64 {
	profileIDs.Lock()
	defer profileIDs.Unlock()
	if wp.id == 0 {
		profileIDs.last++
		wp.id = profileIDs.last
	}
	return wp.id
}

// classKey names b's replay class on wp, or reports that b replays alone.
func classKey(wp *WorkloadProfile, b design.Backend) (string, bool) {
	key, ok := b.ReplayKey()
	return strconv.FormatUint(wp.identity(), 10) + "|" + key, ok
}

// get returns the resident class of b on wp.
func (c *ClassCache) get(wp *WorkloadProfile, b design.Backend) (e classEntry, ok bool) {
	if key, keyed := classKey(wp, b); keyed && c != nil {
		e, _, ok = c.lru.Get(key)
	}
	return e, ok
}

// add stores snap, the snapshot of leader's replay on wp, as its class's.
func (c *ClassCache) add(wp *WorkloadProfile, leader design.Backend, snap []core.LevelStats) {
	if key, ok := classKey(wp, leader); ok && c != nil {
		c.lru.Add(key, classEntry{snap: snap, by: leader.Name})
	}
}

// Do evaluates design point b on wp at exact fidelity: from its class's
// snapshot when resident, or else by replaying b — once for all concurrent
// misses of the class (lru.Cache.Do) — and keeping the snapshot. A design
// without a replay key replays alone. own reports whether this call
// replayed.
func (c *ClassCache) Do(ctx context.Context, wp *WorkloadProfile, b design.Backend) (ev model.Evaluation, own bool, err error) {
	start := time.Now()
	key, ok := classKey(wp, b)
	if !ok {
		ev, err = wp.EvaluateCtx(ctx, b)
		return ev, true, err
	}
	// A member fails alone, with the error its own Build would give,
	// before it can lead or join the class's replay.
	if err := b.Check(); err != nil {
		return ev, false, err
	}
	var r FanoutResult
	e, own, err := c.lru.Do(ctx, key, func() (classEntry, error) {
		r = wp.EvaluateFanout(ctx, []design.Backend{b})[0]
		return classEntry{snap: r.Snap, by: b.Name}, r.Err
	})
	if err != nil || own {
		return r.Eval, own, err
	}
	ev, err = wp.answer(ctx, e, b, start)
	return ev, false, err
}

// answer is the member step: b's own Check error first, then b's
// evaluation of its class's snapshot relabelled, counted in replaysShared
// and logged as b's design_point event, whose wall time runs from start:
// when the call answering b began, or its class's fan-out began.
func (wp *WorkloadProfile) answer(ctx context.Context, e classEntry, b design.Backend, start time.Time) (ev model.Evaluation, err error) {
	if err := b.Check(); err != nil {
		return ev, err
	}
	defer obs.TimeStage(ctx, "finish")()
	defer fault.RecoverTo(&err, "evaluate "+b.Name+" on "+wp.Name)
	if ev, err = wp.EvaluateProfile(b.Name, b.Relabel(e.snap)); err != nil {
		return ev, err
	}
	replaysShared.Add(1)
	wp.logDesignPoint(ctx, b, ev, replaySource{by: e.by, shared: true}, start)
	return ev, nil
}
