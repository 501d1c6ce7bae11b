package reuse

import (
	"fmt"
	"math/bits"
	"slices"

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

// Validate reports why s cannot be a sketch a Sketcher captured, or nil: a
// schema version other than SketchVersion, or a histogram that breaks the
// capture invariants — exactly HistBuckets buckets, whose counts plus Cold
// sum to Total. Restore paths treat a failure as a miss, never as data.
func (s *Sketch) Validate() error {
	if s.Version != SketchVersion {
		return fmt.Errorf("reuse: sketch version %d (this build reads %d)", s.Version, SketchVersion)
	}
	for _, g := range s.Grans {
		if err := g.Access.validate(); err != nil {
			return fmt.Errorf("reuse: sketch %d B access histogram: %w", g.Gran, err)
		}
		if err := g.Dirty.validate(); err != nil {
			return fmt.Errorf("reuse: sketch %d B dirty histogram: %w", g.Gran, err)
		}
	}
	return nil
}

// validate checks one histogram's capture invariants (see Sketch.Validate).
func (h Histogram) validate() error {
	if len(h.Buckets) != HistBuckets {
		return fmt.Errorf("%d buckets, want %d", len(h.Buckets), HistBuckets)
	}
	sum, carry := h.Cold, uint64(0)
	for _, n := range h.Buckets {
		var c uint64
		sum, c = bits.Add64(sum, n, 0)
		carry |= c
	}
	if carry != 0 || sum != h.Total {
		return fmt.Errorf("buckets plus cold do not sum to total %d", h.Total)
	}
	return nil
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

// Sketcher is a trace.Sink that captures a Sketch in one pass
// over a reference stream. It runs the reuse-distance algorithm of the
// package comment at every granularity simultaneously and additionally
// tracks, per page, the maximum gap since the page's last store (the
// dirty-episode histogram) and the exact byte-union of stores
// (DistinctStoreBytes).
//
// A reference inside one page of the finest granularity (every boundary
// reference) costs one map lookup: each finest page caches its page ids at
// the coarser granularities on first touch.
type Sketcher struct {
	grans []granSketcher // ascending by granularity; grans[0] is the finest
	// up[f*(len(grans)-1)+gi-1] is the id, at grans[gi], of the page
	// containing finest page f.
	up []int32

	loads, stores         uint64
	loadBytes, storeBytes uint64
	storeSectors          uint64
	lineMask              map[uint64]uint64 // 64 B line -> stored-byte bitmask
}

// pageState is one page's bookkeeping inside a granSketcher.
type pageState struct {
	lastT  int32  // timestamp of the latest access; -1 before the first touch
	curMax uint32 // max reuse distance since the page's last store
	stored bool   // page has been stored at least once
}

// minStamps is the smallest timestamp capacity of a granSketcher.
const minStamps = 1024

// shortWords is the widest gap, in 64-timestamp words between a page's
// timestamp and the clock, whose distance is counted by popcount instead
// of a tree walk.
const shortWords = 8

// granSketcher profiles one granularity. Pages get dense ids on first
// touch. Each touched page holds one timestamp, and bit ts of stamps is set
// iff timestamp ts is some page's latest, so a page's reuse distance is the
// number of set bits above its timestamp. tree is a Fenwick tree over the
// popcounts of stamps[:sealed]; the word holding the newest timestamp is
// added only once the clock moves past it, so stamping rarely walks the
// tree. When the clock reaches the capacity, compact renumbers the live
// timestamps 0..P-1 and the capacity follows the page count, not the
// access count.
type granSketcher struct {
	shift uint
	ids   map[uint64]int32 // page number -> dense page id
	pages []pageState      // by dense page id
	mru   int32            // page holding the newest timestamp; -1 if none

	stamps []uint64 // one bit per timestamp
	tree   []int32  // Fenwick tree over word popcounts, 1-based
	owner  []int32  // owner[ts] is the page stamped ts
	sealed int      // words below sealed are summed in tree
	clock  int      // next timestamp
	live   int      // set bits in stamps: pages touched so far
	// compactions counts renumbering passes (the first, allocating call
	// excluded), so tests can check that a stream crossed them.
	compactions int

	total     uint64
	hist      [HistBuckets]uint64
	cold      uint64
	dirtyHist [HistBuckets]uint64
	dirtyCold uint64
	dirtyTot  uint64
}

// NewSketcher returns a sketcher over the given page granularities (powers
// of two, in any order, each at most once); with none given it captures
// DesignGranularities. Its sketches list the granularities ascending.
func NewSketcher(grans ...uint64) (*Sketcher, error) {
	if len(grans) == 0 {
		grans = DesignGranularities
	}
	grans = slices.Clone(grans)
	slices.Sort(grans)
	s := &Sketcher{lineMask: make(map[uint64]uint64)}
	for i, g := range grans {
		if g == 0 || g&(g-1) != 0 {
			return nil, fmt.Errorf("reuse: granularity %d not a power of two", g)
		}
		if i > 0 && g == grans[i-1] {
			return nil, fmt.Errorf("reuse: granularity %d given twice", g)
		}
		s.grans = append(s.grans, granSketcher{
			shift: uint(bits.TrailingZeros64(g)),
			ids:   make(map[uint64]int32),
			mru:   -1,
		})
	}
	return s, nil
}

// AccessBatch implements trace.Sink. References spanning multiple
// pages charge each covered page (boundary streams never span, but the
// sketcher does not rely on it).
func (s *Sketcher) AccessBatch(refs []trace.Ref) {
	fine := &s.grans[0]
	coarse := s.grans[1:]
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
		first := r.Addr >> fine.shift
		if last := (r.Addr + size - 1) >> fine.shift; last != first {
			s.touchSpan(r.Addr, size, store)
			continue
		}
		f := s.fineID(first)
		fine.touch(f, store)
		for gi, id := range s.up[int(f)*len(coarse):][:len(coarse)] {
			coarse[gi].touch(id, store)
		}
	}
}

// touchSpan charges a reference covering more than one finest page to
// every covered page at every granularity.
func (s *Sketcher) touchSpan(addr, size uint64, store bool) {
	for gi := range s.grans {
		g := &s.grans[gi]
		last := (addr + size - 1) >> g.shift
		for page := addr >> g.shift; page <= last; page++ {
			if gi == 0 {
				g.touch(s.fineID(page), store)
			} else {
				g.touch(g.id(page), store)
			}
		}
	}
}

// fineID returns the id of finest page number page, assigning one on
// first sight.
func (s *Sketcher) fineID(page uint64) int32 {
	if id, ok := s.grans[0].ids[page]; ok {
		return id
	}
	return s.newFine(page)
}

// newFine gives finest page number page its id and caches the ids of the
// pages containing it at every coarser granularity.
func (s *Sketcher) newFine(page uint64) int32 {
	fine := &s.grans[0]
	for gi := 1; gi < len(s.grans); gi++ {
		g := &s.grans[gi]
		s.up = append(s.up, g.id(page>>(g.shift-fine.shift)))
	}
	return fine.id(page)
}

// id returns page's dense id, assigning the next one on first sight.
func (g *granSketcher) id(page uint64) int32 {
	id, ok := g.ids[page]
	if !ok {
		id = int32(len(g.pages))
		g.ids[page] = id
		g.pages = append(g.pages, pageState{lastT: -1})
	}
	return id
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

// touch records one access to page p at this granularity.
func (g *granSketcher) touch(p int32, store bool) {
	g.total++
	st := &g.pages[p]
	switch {
	case p == g.mru:
		g.hist[0]++ // distance 0; the recency order is unchanged
	case st.lastT < 0:
		g.cold++
		g.live++
		g.stamp(p)
	default:
		d := g.distance(int(st.lastT))
		g.hist[bucket(uint64(d))]++
		if uint32(d) > st.curMax {
			st.curMax = uint32(d)
		}
		g.unstamp(int(st.lastT))
		g.stamp(p)
	}
	if store {
		g.dirtyTot++
		if st.stored {
			g.dirtyHist[bucket(uint64(st.curMax))]++
		} else {
			g.dirtyCold++
			st.stored = true
		}
		st.curMax = 0
	}
}

// distance returns the number of set timestamps above t: by popcount when
// t is within shortWords words of the clock, else through the tree.
func (g *granSketcher) distance(t int) int {
	if g.sealed-t>>6 <= shortWords {
		return g.distanceScan(t)
	}
	return g.distanceTree(t)
}

// distanceScan counts the set timestamps above t word by word.
func (g *granSketcher) distanceScan(t int) int {
	w := t >> 6
	d := bits.OnesCount64(g.stamps[w] &^ (uint64(2)<<(t&63) - 1))
	for _, x := range g.stamps[w+1 : g.sealed+1] {
		d += bits.OnesCount64(x)
	}
	return d
}

// distanceTree is the live page count less the set timestamps at or below
// t: the tree's sum over the words below t's plus a popcount within it.
func (g *granSketcher) distanceTree(t int) int {
	w := t >> 6
	d := g.live - bits.OnesCount64(g.stamps[w]&(uint64(2)<<(t&63)-1))
	for j := w; j > 0; j &= j - 1 {
		d -= int(g.tree[j])
	}
	return d
}

// unstamp clears timestamp t.
func (g *granSketcher) unstamp(t int) {
	w := t >> 6
	g.stamps[w] &^= 1 << (t & 63)
	if w < g.sealed {
		g.treeAdd(w, -1)
	}
}

// stamp gives page p the next timestamp, compacting first if the clock is
// at capacity.
func (g *granSketcher) stamp(p int32) {
	if g.clock == len(g.owner) {
		g.compact()
	}
	t := g.clock
	for w := t >> 6; g.sealed < w; g.sealed++ {
		g.treeAdd(g.sealed, int32(bits.OnesCount64(g.stamps[g.sealed])))
	}
	g.stamps[t>>6] |= 1 << (t & 63)
	g.owner[t] = p
	g.pages[p].lastT = int32(t)
	g.clock++
	g.mru = p
}

// treeAdd adds delta to word w's count.
func (g *granSketcher) treeAdd(w int, delta int32) {
	for j := w + 1; j < len(g.tree); j += j & -j {
		g.tree[j] += delta
	}
}

// compact renumbers the set timestamps 0..k-1 in recency order, growing
// the capacity to at least twice k so the next compaction is at least k
// stamps away, and rebuilds the tree in one linear pass.
func (g *granSketcher) compact() {
	if len(g.owner) > 0 {
		g.compactions++
	}
	k := 0
	for w, x := range g.stamps {
		for ; x != 0; x &= x - 1 {
			p := g.owner[w<<6|bits.TrailingZeros64(x)]
			g.owner[k] = p // k never passes the timestamp being read
			g.pages[p].lastT = int32(k)
			k++
		}
	}
	if want := max(2*k, minStamps); len(g.owner) < want {
		want = (want + 63) &^ 63
		g.owner = append(make([]int32, 0, want), g.owner[:k]...)[:want]
		g.stamps = make([]uint64, want>>6)
		g.tree = make([]int32, want>>6+1)
	}
	clear(g.stamps)
	for w := 0; w < k>>6; w++ {
		g.stamps[w] = ^uint64(0)
	}
	if k&63 != 0 {
		g.stamps[k>>6] = 1<<(k&63) - 1
	}
	g.sealed = 0
	if k > 0 {
		g.sealed = (k - 1) >> 6
	}
	clear(g.tree)
	for w := 0; w < g.sealed; w++ {
		g.tree[w+1] = int32(bits.OnesCount64(g.stamps[w]))
	}
	for j := 1; j < len(g.tree); j++ {
		if up := j + j&-j; up < len(g.tree) {
			g.tree[up] += g.tree[j]
		}
	}
	g.clock = k
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
				Lines:   uint64(g.live),
				Total:   g.total,
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
