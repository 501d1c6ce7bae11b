package reuse

import (
	"fmt"
	"math/bits"

	"hybridmem/internal/trace"
)

// DesignGranularities is the default set of page granularities captured by a
// Sketcher: the union of back-end cache page sizes used by the paper's
// Table 2/3 designs (64 B L3 lines through 4 KB OS pages). Capturing every
// granularity once lets the analytic predictor answer for any catalog design
// without replaying the stream.
var DesignGranularities = []uint64{64, 128, 256, 512, 1024, 2048, 4096}

// SketchVersion is the schema version of persisted sketches (FORMATS.md).
// Bump it whenever the histogram semantics or field layout change; restore
// paths treat a version mismatch as a cache miss, never as data.
const SketchVersion = 1

// Sketch is the compact analytic summary of one boundary reference stream:
// exact traffic scalars plus, per granularity, an LRU reuse-distance
// histogram and a dirty-episode histogram. It is captured once per workload
// profile and persisted alongside the profile manifest, so a restored
// profile can answer analytic queries with zero replay.
type Sketch struct {
	// Version is the sketch schema version (SketchVersion at capture time).
	Version int `json:"v"`
	// Loads and Stores count boundary references by kind.
	Loads uint64 `json:"loads"`
	// Stores counts boundary store references.
	Stores uint64 `json:"stores"`
	// LoadBytes and StoreBytes total the reference payload bytes by kind.
	LoadBytes uint64 `json:"load_bytes"`
	// StoreBytes totals store payload bytes.
	StoreBytes uint64 `json:"store_bytes"`
	// DistinctStoreBytes is the exact number of distinct bytes ever stored
	// (the byte-granular union of all store intervals).
	DistinctStoreBytes uint64 `json:"distinct_store_bytes"`
	// StoreSectors counts 64 B sectors touched by stores, with
	// multiplicity: the zero-capacity limit of write-back traffic in
	// sectors, when every store's dirt writes back separately.
	StoreSectors uint64 `json:"store_sectors"`
	// DistinctStoreLines counts distinct 64 B lines ever stored: the
	// infinite-capacity limit of write-back traffic in sectors, when each
	// stored sector writes back exactly once.
	DistinctStoreLines uint64 `json:"distinct_store_lines"`
	// Grans holds one histogram pair per captured page granularity,
	// ascending by granularity.
	Grans []GranSketch `json:"grans"`
}

// GranSketch is the per-granularity slice of a Sketch.
type GranSketch struct {
	// Gran is the page granularity in bytes (a power of two).
	Gran uint64 `json:"gran"`
	// Access is the LRU reuse-distance histogram over pages of this
	// granularity: HitRate(c) predicts the hit rate of a fully-associative
	// LRU cache holding c pages.
	Access Histogram `json:"access"`
	// Dirty is the dirty-episode histogram: for every store to a page after
	// that page's first store, the maximum reuse distance observed on the
	// page since the previous store (including the store's own distance);
	// Cold counts first-ever stores per page. A page stays continuously
	// resident — and therefore accumulates dirt without a write-back —
	// between two stores iff every intervening gap is below the cache's
	// page capacity, so DirtyEpisodes(c) predicts write-back episodes.
	Dirty Histogram `json:"dirty"`
}

// Misses predicts the number of misses of a fully-associative LRU cache
// holding cachePages pages of this granularity.
func (gs GranSketch) Misses(cachePages uint64) float64 {
	return float64(gs.Access.Total) * (1 - gs.Access.HitRate(cachePages))
}

// DirtyEpisodes predicts the number of dirty write-back episodes at a cache
// capacity of cachePages pages: stores that begin a new dirty residency
// (first-ever stores always do; later stores do iff some gap since the
// previous store reached the capacity). Its limits bracket write-back
// traffic: every store at capacity 0, one per stored page at infinity.
func (gs GranSketch) DirtyEpisodes(cachePages uint64) float64 {
	return float64(gs.Dirty.Total) * (1 - gs.Dirty.HitRate(cachePages))
}

// At returns the granularity slice for gran bytes.
func (s *Sketch) At(gran uint64) (GranSketch, bool) {
	for _, g := range s.Grans {
		if g.Gran == gran {
			return g, true
		}
	}
	return GranSketch{}, false
}

// Refs returns the total boundary references summarized.
func (s *Sketch) Refs() uint64 { return s.Loads + s.Stores }

// WriteFraction returns the fraction of boundary references that are stores.
func (s *Sketch) WriteFraction() float64 {
	if t := s.Loads + s.Stores; t > 0 {
		return float64(s.Stores) / float64(t)
	}
	return 0
}

// Footprint returns the touched bytes at the given granularity (distinct
// pages times page size), or 0 if that granularity was not captured.
func (s *Sketch) Footprint(gran uint64) uint64 {
	if g, ok := s.At(gran); ok {
		return g.Access.Lines * gran
	}
	return 0
}

// Sketcher is a trace.Sink and BatchSink that captures a Sketch in one pass
// over a reference stream. It runs the classic Fenwick-tree reuse-distance
// algorithm at every granularity simultaneously and additionally tracks,
// per page, the maximum gap since the page's last store (the dirty-episode
// histogram) and the exact byte-union of stores (DistinctStoreBytes).
type Sketcher struct {
	grans                 []granSketcher
	loads, stores         uint64
	loadBytes, storeBytes uint64
	storeSectors          uint64
	lineMask              map[uint64]uint64 // 64 B line -> stored-byte bitmask
}

// pageState is one page's residency bookkeeping inside a granSketcher.
type pageState struct {
	lastT  int    // timestamp of the latest access
	curMax uint64 // max reuse distance since the page's last store
	stored bool   // page has been stored at least once
}

// granSketcher profiles one granularity.
type granSketcher struct {
	shift uint
	bit   fenwick
	pages map[uint64]pageState
	t     int

	hist      [48]uint64
	cold      uint64
	dirtyHist [48]uint64
	dirtyCold uint64
	dirtyTot  uint64
}

// NewSketcher returns a sketcher over the given page granularities (powers
// of two); with none given it captures DesignGranularities.
func NewSketcher(grans ...uint64) (*Sketcher, error) {
	if len(grans) == 0 {
		grans = DesignGranularities
	}
	s := &Sketcher{lineMask: make(map[uint64]uint64)}
	for _, g := range grans {
		if g == 0 || g&(g-1) != 0 {
			return nil, fmt.Errorf("reuse: granularity %d not a power of two", g)
		}
		s.grans = append(s.grans, granSketcher{
			shift: uint(bits.TrailingZeros64(g)),
			pages: make(map[uint64]pageState),
		})
	}
	return s, nil
}

// Access implements trace.Sink, so a workload can Run into a Sketcher.
func (s *Sketcher) Access(r trace.Ref) { s.AccessBatch([]trace.Ref{r}) }

// AccessBatch implements trace.BatchSink. References spanning multiple
// pages charge each covered page (boundary streams never span, but the
// sketcher does not rely on it).
func (s *Sketcher) AccessBatch(refs []trace.Ref) {
	for i := range refs {
		r := &refs[i]
		size := uint64(r.Size)
		if size == 0 {
			size = 1
		}
		store := r.Kind == trace.Store
		if store {
			s.stores++
			s.storeBytes += size
			s.recordStoredBytes(r.Addr, size)
		} else {
			s.loads++
			s.loadBytes += size
		}
		for gi := range s.grans {
			g := &s.grans[gi]
			first := r.Addr >> g.shift
			last := (r.Addr + size - 1) >> g.shift
			for page := first; page <= last; page++ {
				g.touch(page, store)
			}
		}
	}
}

// recordStoredBytes ORs the store's byte interval into the per-64B-line
// bitmasks backing DistinctStoreBytes.
func (s *Sketcher) recordStoredBytes(addr, size uint64) {
	end := addr + size
	for base := addr &^ 63; base < end; base += 64 {
		s.storeSectors++
		lo, hi := base, base+64
		if addr > lo {
			lo = addr
		}
		if end < hi {
			hi = end
		}
		mask := ^uint64(0)
		if n := hi - lo; n < 64 {
			mask = (uint64(1)<<n - 1) << (lo - base)
		}
		s.lineMask[base>>6] |= mask
	}
}

// touch records one page access at this granularity.
func (g *granSketcher) touch(page uint64, store bool) {
	st, ok := g.pages[page]
	if ok {
		d := g.bit.sum(g.t) - g.bit.sum(st.lastT)
		if d < 0 {
			d = 0
		}
		g.hist[bucket(uint64(d))]++
		g.bit.add(st.lastT, -1)
		if uint64(d) > st.curMax {
			st.curMax = uint64(d)
		}
	} else {
		g.cold++
	}
	g.bit.add(g.t, 1)
	st.lastT = g.t
	g.t++
	if store {
		g.dirtyTot++
		if st.stored {
			g.dirtyHist[bucket(st.curMax)]++
		} else {
			g.dirtyCold++
			st.stored = true
		}
		st.curMax = 0
	}
	g.pages[page] = st
}

// Sketch snapshots the sketcher's state.
func (s *Sketcher) Sketch() *Sketch {
	sk := &Sketch{
		Version:            SketchVersion,
		Loads:              s.loads,
		Stores:             s.stores,
		LoadBytes:          s.loadBytes,
		StoreBytes:         s.storeBytes,
		StoreSectors:       s.storeSectors,
		DistinctStoreLines: uint64(len(s.lineMask)),
	}
	for _, m := range s.lineMask {
		sk.DistinctStoreBytes += uint64(bits.OnesCount64(m))
	}
	for i := range s.grans {
		g := &s.grans[i]
		sk.Grans = append(sk.Grans, GranSketch{
			Gran: uint64(1) << g.shift,
			Access: Histogram{
				Buckets: append([]uint64(nil), g.hist[:]...),
				Cold:    g.cold,
				Lines:   uint64(len(g.pages)),
				Total:   uint64(g.t),
			},
			Dirty: Histogram{
				Buckets: append([]uint64(nil), g.dirtyHist[:]...),
				Cold:    g.dirtyCold,
				Lines:   g.dirtyCold,
				Total:   g.dirtyTot,
			},
		})
	}
	return sk
}
