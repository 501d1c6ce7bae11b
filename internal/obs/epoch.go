package obs

import (
	"hybridmem/internal/cache"
	"hybridmem/internal/core"
	"hybridmem/internal/trace"
)

// Snapshotter is a reference sink that can report cumulative per-level
// statistics: *core.Hierarchy qualifies.
type Snapshotter interface {
	trace.Sink
	Snapshot() []core.LevelStats
}

// LevelSample is one level's activity during one epoch, computed by
// differencing consecutive cumulative snapshots.
type LevelSample struct {
	// HitRate is hits/accesses at this level within the epoch (0 when the
	// level saw no traffic).
	HitRate float64
	// MPKI is the level's misses per thousand workload references of the
	// epoch — the paper's preferred per-level pressure metric.
	MPKI float64
	// LoadBytes and StoreBytes are the payload bytes the level served.
	LoadBytes  uint64
	StoreBytes uint64
	// WriteBacks counts dirty lines the level evicted downstream.
	WriteBacks uint64
}

// TotalBytes returns the level's total traffic in the epoch.
func (s LevelSample) TotalBytes() uint64 { return s.LoadBytes + s.StoreBytes }

// Epoch is one sampling interval of the reference stream.
type Epoch struct {
	// Index is the zero-based epoch number.
	Index int
	// EndRefs is the cumulative reference count at the sample point.
	EndRefs uint64
	// Refs is the number of references in this epoch (equal to the
	// sampling interval except for the final, possibly partial, epoch).
	Refs uint64
	// Levels holds one sample per hierarchy level, caches first, memory
	// modules last, in Snapshot order.
	Levels []LevelSample
}

// Series is an epoch time-series for one simulation run.
type Series struct {
	// EveryRefs is the sampling interval in references.
	EveryRefs uint64
	// Levels names the sampled levels in Snapshot order.
	Levels []string
	// CacheLevels is the number of leading entries of Levels that are
	// cache levels (the rest are memory modules, whose hit rate is
	// trivially 1).
	CacheLevels int
	// Epochs are the samples in stream order.
	Epochs []Epoch
}

// EpochSampler wraps a Snapshotter sink and cuts an epoch every N
// references. The hot path (AccessBatch) only forwards and counts; the
// snapshot diff runs once per epoch boundary.
type EpochSampler struct {
	target Snapshotter
	every  uint64
	since  uint64 // references since the last epoch cut
	refs   uint64 // cumulative references
	prev   []core.LevelStats
	series Series
}

// DefaultEpochRefs is the sampling interval used when a caller enables
// sampling without choosing one (2^20 references).
const DefaultEpochRefs = 1 << 20

// NewEpochSampler samples target every everyRefs references (0 selects
// DefaultEpochRefs). The target's current snapshot becomes the baseline, so
// wrapping a warm hierarchy yields deltas from that point on.
func NewEpochSampler(target Snapshotter, everyRefs uint64) *EpochSampler {
	if everyRefs == 0 {
		everyRefs = DefaultEpochRefs
	}
	snap := target.Snapshot()
	s := &EpochSampler{target: target, every: everyRefs, prev: snap}
	s.series.EveryRefs = everyRefs
	s.series.Levels = make([]string, len(snap))
	for i, l := range snap {
		s.series.Levels[i] = l.Name
	}
	s.series.CacheLevels = cacheLevelCount(target, len(snap))
	return s
}

// cacheLevelCount asks the target how many snapshot entries are cache
// levels, falling back to "all but the last" for unknown targets.
func cacheLevelCount(target Snapshotter, total int) int {
	if h, ok := target.(interface{ Levels() []core.LevelStats }); ok { // *core.Hierarchy
		return len(h.Levels())
	}
	if total > 0 {
		return total - 1
	}
	return 0
}

// AccessBatch forwards refs to the target, splitting the batch exactly at
// interval boundaries so the resulting Series does not depend on how the
// stream was cut into batches. The splits forward subslices of refs — the
// sampling path stays allocation-free.
func (s *EpochSampler) AccessBatch(refs []trace.Ref) {
	for len(refs) > 0 {
		room := s.every - s.since
		if n := uint64(len(refs)); n < room {
			s.target.AccessBatch(refs)
			s.refs += n
			s.since += n
			return
		}
		s.target.AccessBatch(refs[:room])
		s.refs += room
		s.since += room
		s.cut()
		refs = refs[room:]
	}
}

// Flush flushes the target (draining residual dirty lines downstream) and
// closes the final epoch so flush traffic is attributed rather than lost.
// When the run ended exactly on an epoch boundary and the flush moved no
// statistics, no empty trailing epoch is emitted.
func (s *EpochSampler) Flush() {
	trace.FlushIfPossible(s.target)
	if s.since > 0 {
		s.cut()
		return
	}
	snap := s.target.Snapshot()
	if !snapshotsEqual(snap, s.prev) {
		s.cutWith(snap)
	}
}

// snapshotsEqual reports whether two snapshots carry identical statistics.
func snapshotsEqual(a, b []core.LevelStats) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Stats != b[i].Stats {
			return false
		}
	}
	return true
}

// cut diffs the target's snapshot against the previous epoch boundary and
// appends the resulting epoch.
func (s *EpochSampler) cut() { s.cutWith(s.target.Snapshot()) }

// cutWith appends the epoch delta between snap and the previous boundary.
func (s *EpochSampler) cutWith(snap []core.LevelStats) {
	ep := Epoch{Index: len(s.series.Epochs), EndRefs: s.refs, Refs: s.since}
	ep.Levels = make([]LevelSample, len(snap))
	for i := range snap {
		cur := snap[i].Stats
		var prev cache.Stats
		if i < len(s.prev) {
			prev = s.prev[i].Stats
		}
		ep.Levels[i] = sampleDelta(cur, prev, ep.Refs)
	}
	s.prev = snap
	s.series.Epochs = append(s.series.Epochs, ep)
	CountRefs(s.since)
	s.since = 0
}

// sampleDelta converts a cumulative-stats pair into one epoch's sample.
func sampleDelta(cur, prev cache.Stats, epochRefs uint64) LevelSample {
	accesses := cur.Accesses() - prev.Accesses()
	hits := cur.Hits() - prev.Hits()
	misses := accesses - hits
	out := LevelSample{
		LoadBytes:  (cur.LoadBits - prev.LoadBits) / 8,
		StoreBytes: (cur.StoreBits - prev.StoreBits) / 8,
		WriteBacks: cur.WriteBacks - prev.WriteBacks,
	}
	if accesses > 0 {
		out.HitRate = float64(hits) / float64(accesses)
	}
	if epochRefs > 0 {
		out.MPKI = float64(misses) / (float64(epochRefs) / 1000)
	}
	return out
}

// Series returns the accumulated time-series. The returned pointer stays
// valid (and keeps growing) across further AccessBatch calls.
func (s *EpochSampler) Series() *Series { return &s.series }

// Refs returns the cumulative reference count the sampler has forwarded.
func (s *EpochSampler) Refs() uint64 { return s.refs }
