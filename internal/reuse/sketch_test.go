package reuse

import (
	"encoding/json"
	"math"
	"math/rand/v2"
	"testing"

	"hybridmem/internal/trace"
)

// lruCache is the sketch oracle: an exact fully-associative LRU cache of
// capacity pages with dirty bits. It counts misses and write-back episodes
// (dirty evictions plus the final flush) the way a real write-allocate
// cache would, which is precisely what Misses and DirtyEpisodes predict.
type lruCache struct {
	cap    int
	order  []uint64 // MRU first
	dirty  map[uint64]bool
	misses uint64
	wbacks uint64
}

func newLRUCache(capPages int) *lruCache {
	return &lruCache{cap: capPages, dirty: map[uint64]bool{}}
}

func (c *lruCache) access(page uint64, store bool) {
	for i, p := range c.order {
		if p == page {
			c.order = append(c.order[:i], c.order[i+1:]...)
			c.order = append([]uint64{page}, c.order...)
			if store {
				c.dirty[page] = true
			}
			return
		}
	}
	c.misses++
	if len(c.order) >= c.cap {
		victim := c.order[len(c.order)-1]
		c.order = c.order[:len(c.order)-1]
		if c.dirty[victim] {
			c.wbacks++
		}
		delete(c.dirty, victim)
	}
	c.order = append([]uint64{page}, c.order...)
	if store {
		c.dirty[page] = true
	}
}

func (c *lruCache) flush() {
	for _, p := range c.order {
		if c.dirty[p] {
			c.wbacks++
		}
	}
}

// TestSketchAgainstLRUOracle checks that, at power-of-two capacities (where
// the histogram interpolation is exact), the sketch predicts the miss and
// write-back counts of an exact LRU cache simulation bit-for-bit.
func TestSketchAgainstLRUOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 13))
	refs := make([]trace.Ref, 6000)
	for i := range refs {
		refs[i] = trace.Ref{
			Addr: rng.Uint64N(300) * 64, // line-aligned like boundary streams
			Size: uint32(8 + rng.Uint64N(57)),
			Kind: trace.Kind(rng.Uint64N(3) / 2), // ~1/3 stores
		}
	}
	sk, err := NewSketcher(64, 256)
	if err != nil {
		t.Fatal(err)
	}
	sk.AccessBatch(refs)
	s := sk.Sketch()

	for _, gran := range []uint64{64, 256} {
		gs, ok := s.At(gran)
		if !ok {
			t.Fatalf("granularity %d missing", gran)
		}
		for _, capPages := range []int{4, 16, 64, 256} {
			oracle := newLRUCache(capPages)
			for _, r := range refs {
				first := r.Addr / gran
				last := (r.Addr + uint64(r.Size) - 1) / gran
				for p := first; p <= last; p++ {
					oracle.access(p, r.Kind == trace.Store)
				}
			}
			oracle.flush()
			if got := gs.Misses(uint64(capPages)); math.Abs(got-float64(oracle.misses)) > 1e-6 {
				t.Errorf("gran %d cap %d: predicted %.2f misses, oracle %d",
					gran, capPages, got, oracle.misses)
			}
			if got := gs.DirtyEpisodes(uint64(capPages)); math.Abs(got-float64(oracle.wbacks)) > 1e-6 {
				t.Errorf("gran %d cap %d: predicted %.2f write-backs, oracle %d",
					gran, capPages, got, oracle.wbacks)
			}
		}
	}
}

// TestSketchAgainstLRUOracleUnaligned is the oracle test on the streams
// the fast path does not see in boundary traffic: unaligned and size-0
// references, references spanning pages at every granularity, an unsorted
// granularity list, and a stream long enough (over a footprint wide enough)
// to cross many timestamp compactions and take both distance paths.
func TestSketchAgainstLRUOracleUnaligned(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 19))
	const footprint = 2500 * 64
	refs := make([]trace.Ref, 40000)
	for i := range refs {
		addr := rng.Uint64N(footprint)
		switch rng.Uint64N(12) {
		case 0, 1, 2, 3:
			addr = rng.Uint64N(1024) // a hot kilobyte keeps short distances common
		case 4:
			if i > 0 {
				addr = refs[i-1].Addr // re-touches the previous reference's first page
			}
		case 5:
			if i > 0 {
				addr = refs[i-1].Addr + uint64(refs[i-1].Size) // ... or its last
			}
		}
		size := uint32(rng.Uint64N(200)) // 0 (one byte) through spans of 4 lines
		if rng.Uint64N(50) == 0 {
			size = 2100 // spans pages even at 1 KiB
		}
		refs[i] = trace.Ref{Addr: addr, Size: size, Kind: trace.Kind(rng.Uint64N(3) / 2)}
	}
	sk, err := NewSketcher(1024, 64, 128)
	if err != nil {
		t.Fatal(err)
	}
	sk.AccessBatch(refs)
	if c := sk.grans[0].compactions; c < 10 {
		t.Fatalf("stream crossed %d compactions at 64 B, want at least 10", c)
	}
	s := sk.Sketch()
	if g := s.Grans; len(g) != 3 || g[0].Gran != 64 || g[1].Gran != 128 || g[2].Gran != 1024 {
		t.Fatalf("granularities not ascending: %+v", g)
	}
	if long := s.Grans[0].Access.Buckets[bucket(1024)]; long == 0 {
		t.Fatal("no reuse distance of 1024 or more: the tree path went unexercised")
	}
	for _, gs := range s.Grans {
		gran := gs.Gran
		for _, capPages := range []int{16, 128, 1024} {
			oracle := newLRUCache(capPages)
			for _, r := range refs {
				size := uint64(r.Size)
				if size == 0 {
					size = 1
				}
				for p := r.Addr / gran; p <= (r.Addr+size-1)/gran; p++ {
					oracle.access(p, r.Kind == trace.Store)
				}
			}
			oracle.flush()
			if got := gs.Misses(uint64(capPages)); math.Abs(got-float64(oracle.misses)) > 1e-6 {
				t.Errorf("gran %d cap %d: predicted %.2f misses, oracle %d",
					gran, capPages, got, oracle.misses)
			}
			if got := gs.DirtyEpisodes(uint64(capPages)); math.Abs(got-float64(oracle.wbacks)) > 1e-6 {
				t.Errorf("gran %d cap %d: predicted %.2f write-backs, oracle %d",
					gran, capPages, got, oracle.wbacks)
			}
		}
	}
}

// TestSketchScalars pins the exact traffic scalars and the byte-union
// DistinctStoreBytes against straightforward bookkeeping.
func TestSketchScalars(t *testing.T) {
	refs := []trace.Ref{
		{Addr: 0, Size: 64, Kind: trace.Load},
		{Addr: 0, Size: 16, Kind: trace.Store},
		{Addr: 8, Size: 16, Kind: trace.Store}, // overlaps [8,16) with above
		{Addr: 128, Size: 64, Kind: trace.Store},
		{Addr: 256, Size: 0, Kind: trace.Load}, // zero size normalizes to 1
	}
	sk, _ := NewSketcher(64)
	sk.AccessBatch(refs)
	s := sk.Sketch()
	if s.Loads != 2 || s.Stores != 3 {
		t.Fatalf("loads/stores = %d/%d", s.Loads, s.Stores)
	}
	if s.LoadBytes != 65 || s.StoreBytes != 96 {
		t.Fatalf("load/store bytes = %d/%d", s.LoadBytes, s.StoreBytes)
	}
	// Union of stored bytes: [0,24) ∪ [128,192) = 24 + 64.
	if s.DistinctStoreBytes != 88 {
		t.Fatalf("distinct store bytes = %d, want 88", s.DistinctStoreBytes)
	}
	// Three single-sector stores over two distinct 64 B lines.
	if s.StoreSectors != 3 || s.DistinctStoreLines != 2 {
		t.Fatalf("store sectors/lines = %d/%d, want 3/2", s.StoreSectors, s.DistinctStoreLines)
	}
	if wf := s.WriteFraction(); math.Abs(wf-0.6) > 1e-12 {
		t.Fatalf("write fraction = %g", wf)
	}
	// Pages 0, 2, 4 at 64 B.
	if fp := s.Footprint(64); fp != 3*64 {
		t.Fatalf("footprint = %d", fp)
	}
	if s.Refs() != 5 {
		t.Fatalf("refs = %d", s.Refs())
	}
}

func TestSketcherValidation(t *testing.T) {
	if _, err := NewSketcher(48); err == nil {
		t.Error("non-power-of-two granularity should fail")
	}
	if _, err := NewSketcher(0); err == nil {
		t.Error("zero granularity should fail")
	}
	if _, err := NewSketcher(64, 64); err == nil {
		t.Error("a duplicate granularity should fail")
	}
	desc, err := NewSketcher(4096, 64)
	if err != nil {
		t.Fatal(err)
	}
	if g := desc.Sketch().Grans; len(g) != 2 || g[0].Gran != 64 || g[1].Gran != 4096 {
		t.Errorf("NewSketcher(4096, 64) captured %+v, want 64 then 4096", g)
	}
	sk, err := NewSketcher()
	if err != nil {
		t.Fatal(err)
	}
	s := sk.Sketch()
	if len(s.Grans) != len(DesignGranularities) {
		t.Fatalf("default granularities: got %d, want %d", len(s.Grans), len(DesignGranularities))
	}
	if _, ok := s.At(3); ok {
		t.Error("At(3) should miss")
	}
}

// TestSketchJSONRoundTrip guards the persisted schema: a sketch survives
// marshal/unmarshal bit-for-bit, including version and every histogram.
func TestSketchJSONRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 5))
	refs := make([]trace.Ref, 500)
	for i := range refs {
		refs[i] = trace.Ref{Addr: rng.Uint64N(1 << 14), Size: 32, Kind: trace.Kind(rng.Uint64N(2))}
	}
	sk, _ := NewSketcher()
	sk.AccessBatch(refs)
	s := sk.Sketch()
	if s.Version != SketchVersion {
		t.Fatalf("version = %d", s.Version)
	}
	blob, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Sketch
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back.Version != s.Version || back.DistinctStoreBytes != s.DistinctStoreBytes ||
		back.Loads != s.Loads || back.Stores != s.Stores || len(back.Grans) != len(s.Grans) {
		t.Fatalf("round trip lost scalars: %+v vs %+v", back, *s)
	}
	for i := range s.Grans {
		a, b := s.Grans[i], back.Grans[i]
		if a.Gran != b.Gran || a.Access.Total != b.Access.Total || a.Dirty.Total != b.Dirty.Total {
			t.Fatalf("gran %d differs after round trip", a.Gran)
		}
		for k := range a.Access.Buckets {
			if a.Access.Buckets[k] != b.Access.Buckets[k] || a.Dirty.Buckets[k] != b.Dirty.Buckets[k] {
				t.Fatalf("gran %d bucket %d differs", a.Gran, k)
			}
		}
	}
}
