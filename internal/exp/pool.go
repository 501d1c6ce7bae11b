package exp

import (
	"context"
	"slices"
	"sync"

	"hybridmem/internal/design"
	"hybridmem/internal/model"
)

// Job pairs a profiled workload with one design back end to evaluate.
type Job struct {
	WP *WorkloadProfile
	B  design.Backend
}

// fanChunk is one schedulable unit of the grouped plan: up to `workers`
// replay classes of a single workload, evaluated by one EvaluateFanout call
// that decodes the workload's boundary stream exactly once.
type fanChunk struct {
	wp   *WorkloadProfile
	idxs []int // indices into the jobs slice, in job order
	// width is the number of replay classes among idxs: the replay workers
	// the chunk seats.
	width int
}

// boundaryRefs is the scheduling weight of a workload: the length of the
// stream every one of its replay classes must replay.
func boundaryRefs(wp *WorkloadProfile) int {
	if wp == nil || wp.Boundary == nil {
		return 0
	}
	return wp.Boundary.Len()
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
		return boundaryRefs(b.wp) - boundaryRefs(a.wp)
	})
	var chunks []fanChunk
	for _, g := range ordered {
		for off := 0; off < len(g.classes); off += workers {
			cs := g.classes[off:min(off+workers, len(g.classes))]
			idxs := slices.Concat(cs...)
			slices.Sort(idxs)
			chunks = append(chunks, fanChunk{wp: g.wp, idxs: idxs, width: len(cs)})
		}
	}
	return chunks
}

// RunJobs evaluates jobs on a bounded worker pool and returns the
// evaluations in job order. Jobs sharing a WorkloadProfile are grouped into
// fan-out chunks (see EvaluateFanout), so each packed boundary block is
// decoded once per chunk instead of once per design point, and jobs of one
// workload that share a replay class are replayed once; chunks dispatch
// largest boundary first. The worker bound counts replay workers — one per
// replay class in flight — and clamps against the total number of design
// points, not the number of groups, so grouping never under-provisions the
// pool. Each replay worker builds its own back-end instance and the shared
// decoded blocks are read-only, so no simulator state is shared. The first
// error stops dispatch and cancels in-flight chunks.
//
// Cancelling ctx stops dispatching new chunks and aborts in-flight boundary
// replays at the next block boundary; RunJobs then returns ctx.Err(). CLI
// sweeps that have no cancellation story pass context.Background().
func RunJobs(ctx context.Context, jobs []Job, workers int) ([]model.Evaluation, error) {
	if workers <= 0 {
		workers = 1
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	results := make([]model.Evaluation, len(jobs))
	if len(jobs) == 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return results, nil
	}
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
	for _, ch := range planFanout(jobs, workers) {
		need := ch.width
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
			backs := make([]design.Backend, len(ch.idxs))
			for j, i := range ch.idxs {
				backs[j] = jobs[i].B
			}
			rs := ch.wp.EvaluateFanout(ctx, backs)
			mu.Lock()
			for j, i := range ch.idxs {
				if rs[j].Err != nil {
					fail(rs[j].Err)
				} else {
					results[i] = rs[j].Eval
				}
			}
			free += ch.width
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
