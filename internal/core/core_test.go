package core

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"hybridmem/internal/cache"
	"hybridmem/internal/tech"
	"hybridmem/internal/trace"
)

// mustHierarchy is NewHierarchy for levels a test knows are valid.
func mustHierarchy(t *testing.T, levels []Level, mem Memory) *Hierarchy {
	t.Helper()
	h, err := NewHierarchy(levels, mem)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// twoLevel builds a tiny L1(256B)/L2(1KB) hierarchy over a simple memory.
func twoLevel(t *testing.T) (*Hierarchy, *SimpleMemory) {
	t.Helper()
	mem := NewSimpleMemory("mem", tech.DRAM, 1<<20)
	h, err := NewHierarchy([]Level{
		{Cache: cache.New(cache.Config{Name: "L1", Size: 256, LineSize: 64, Assoc: 0}), Tech: tech.SRAML1},
		{Cache: cache.New(cache.Config{Name: "L2", Size: 1024, LineSize: 64, Assoc: 0}), Tech: tech.SRAML2},
	}, mem)
	if err != nil {
		t.Fatal(err)
	}
	return h, mem
}

func TestHierarchyValidation(t *testing.T) {
	if _, err := NewHierarchy(nil, nil); err == nil {
		t.Error("nil memory should fail")
	}
	// Shrinking line sizes are invalid.
	_, err := NewHierarchy([]Level{
		{Cache: cache.New(cache.Config{Name: "a", Size: 1024, LineSize: 128, Assoc: 0}), Tech: tech.SRAML1},
		{Cache: cache.New(cache.Config{Name: "b", Size: 1024, LineSize: 64, Assoc: 0}), Tech: tech.SRAML2},
	}, NewSimpleMemory("m", tech.DRAM, 1<<20))
	if err == nil {
		t.Error("shrinking line size should fail")
	}
	// Invalid technology.
	_, err = NewHierarchy([]Level{
		{Cache: cache.New(cache.Config{Name: "a", Size: 1024, LineSize: 64, Assoc: 0}), Tech: tech.Tech{Name: "broken"}},
	}, NewSimpleMemory("m", tech.DRAM, 1<<20))
	if err == nil {
		t.Error("invalid tech should fail")
	}
}

func TestMissPropagation(t *testing.T) {
	h, mem := twoLevel(t)
	// One load: misses L1 and L2, reaches memory as a single 64B read.
	h.AccessBatch([]trace.Ref{{Addr: 0, Size: 8, Kind: trace.Load}})
	if got := mem.Stats().Loads; got != 1 {
		t.Fatalf("memory loads = %d, want 1", got)
	}
	if got := mem.Stats().LoadBits; got != 64*8 {
		t.Fatalf("memory load bits = %d, want 512", got)
	}
	// Second access to the same line: L1 hit, nothing deeper.
	h.AccessBatch([]trace.Ref{{Addr: 8, Size: 8, Kind: trace.Load}})
	if got := mem.Stats().Loads; got != 1 {
		t.Fatalf("memory loads after hit = %d, want 1", got)
	}
	ls := h.Levels()
	if ls[0].Stats.Loads != 2 || ls[0].Stats.LoadHits != 1 {
		t.Fatalf("L1 stats = %+v", ls[0].Stats)
	}
	if ls[1].Stats.Loads != 1 || ls[1].Stats.LoadHits != 0 {
		t.Fatalf("L2 stats = %+v", ls[1].Stats)
	}
}

func TestStoreMissIsWriteAllocate(t *testing.T) {
	h, mem := twoLevel(t)
	h.AccessBatch([]trace.Ref{{Addr: 0, Size: 8, Kind: trace.Store}})
	// The store allocates: the fetch below is a LOAD.
	if mem.Stats().Loads != 1 || mem.Stats().Stores != 0 {
		t.Fatalf("memory saw %d loads, %d stores; want 1/0", mem.Stats().Loads, mem.Stats().Stores)
	}
}

func TestDirtyEvictionBecomesStore(t *testing.T) {
	h, mem := twoLevel(t)
	// Dirty L1 line 0, then stream 4 more lines through the 4-line L1 to
	// evict it; L2 (16 lines) absorbs the write-back without missing.
	h.AccessBatch([]trace.Ref{{Addr: 0, Size: 8, Kind: trace.Store}})
	for i := uint64(1); i <= 4; i++ {
		h.AccessBatch([]trace.Ref{{Addr: i * 64, Size: 8, Kind: trace.Load}})
	}
	ls := h.Levels()
	if ls[1].Stats.Stores != 1 {
		t.Fatalf("L2 stores = %d, want 1 (the write-back)", ls[1].Stats.Stores)
	}
	// Not yet at memory: L2 holds the dirty line.
	if mem.Stats().Stores != 0 {
		t.Fatalf("memory stores = %d, want 0 before flush", mem.Stats().Stores)
	}
	h.Flush()
	if mem.Stats().Stores != 1 {
		t.Fatalf("memory stores = %d, want 1 after flush", mem.Stats().Stores)
	}
}

func TestFlushIdempotent(t *testing.T) {
	h, mem := twoLevel(t)
	h.AccessBatch([]trace.Ref{{Addr: 0, Size: 8, Kind: trace.Store}})
	h.Flush()
	first := mem.Stats().Stores
	h.Flush()
	if mem.Stats().Stores != first {
		t.Fatal("second flush emitted more stores")
	}
}

func TestLineStraddlingSplit(t *testing.T) {
	h, _ := twoLevel(t)
	// A 16-byte access starting 8 bytes before a line boundary touches
	// two L1 lines.
	h.AccessBatch([]trace.Ref{{Addr: 56, Size: 16, Kind: trace.Load}})
	ls := h.Levels()
	if ls[0].Stats.Loads != 2 {
		t.Fatalf("L1 loads = %d, want 2 (split access)", ls[0].Stats.Loads)
	}
	if h.Refs() != 1 {
		t.Fatalf("Refs() = %d, want 1 (splits don't double-count)", h.Refs())
	}
}

func TestZeroSizeTreatedAsOne(t *testing.T) {
	h, _ := twoLevel(t)
	h.AccessBatch([]trace.Ref{{Addr: 0, Size: 0, Kind: trace.Load}})
	if got := h.Levels()[0].Stats.LoadBits; got != 8 {
		t.Fatalf("zero-size access moved %d bits, want 8", got)
	}
}

func TestCachelessHierarchy(t *testing.T) {
	mem := NewSimpleMemory("m", tech.PCM, 1<<20)
	h, err := NewHierarchy(nil, mem)
	if err != nil {
		t.Fatal(err)
	}
	h.AccessBatch([]trace.Ref{{Addr: 0, Size: 8, Kind: trace.Store}})
	if mem.Stats().Stores != 1 {
		t.Fatal("cacheless hierarchy must route directly to memory")
	}
}

func TestSnapshotShape(t *testing.T) {
	h, _ := twoLevel(t)
	snap := h.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot has %d levels, want 3 (L1, L2, mem)", len(snap))
	}
	if snap[0].Name != "L1" || snap[2].Name != "mem" {
		t.Fatalf("snapshot order wrong: %v, %v, %v", snap[0].Name, snap[1].Name, snap[2].Name)
	}
	if snap[2].Capacity != 1<<20 {
		t.Fatalf("memory capacity = %d", snap[2].Capacity)
	}
}

func TestAddrRange(t *testing.T) {
	r := AddrRange{Start: 100, End: 200}
	if !r.Contains(100) || r.Contains(200) || r.Contains(99) {
		t.Error("Contains is wrong at boundaries")
	}
	if r.Size() != 100 {
		t.Errorf("Size = %d", r.Size())
	}
	if (AddrRange{Start: 5, End: 3}).Size() != 0 {
		t.Error("inverted range size should be 0")
	}
	if !r.Overlaps(AddrRange{Start: 150, End: 250}) {
		t.Error("overlapping ranges not detected")
	}
	if r.Overlaps(AddrRange{Start: 200, End: 300}) {
		t.Error("adjacent ranges are not overlapping")
	}
}

func TestPartitionedMemoryRouting(t *testing.T) {
	pm, err := NewPartitionedMemory(
		[]AddrRange{{Start: 1000, End: 2000}, {Start: 5000, End: 6000}},
		"nvm", tech.PCM, 2000,
		"dram", tech.DRAM, 8000)
	if err != nil {
		t.Fatal(err)
	}
	pm.Load(1500, 64) // range
	pm.Load(500, 64)  // other
	pm.Store(5999, 64)
	pm.Store(6000, 64) // just past: other
	mods := pm.Modules()
	nvm, dram := mods[0], mods[1]
	if nvm.Stats.Loads != 1 || nvm.Stats.Stores != 1 {
		t.Fatalf("nvm side = %+v", nvm.Stats)
	}
	if dram.Stats.Loads != 1 || dram.Stats.Stores != 1 {
		t.Fatalf("dram side = %+v", dram.Stats)
	}
	if nvm.Capacity != 2000 || dram.Capacity != 8000 {
		t.Fatal("capacities not preserved")
	}
}

func TestPartitionedMemoryRejectsOverlap(t *testing.T) {
	_, err := NewPartitionedMemory(
		[]AddrRange{{Start: 0, End: 100}, {Start: 50, End: 150}},
		"a", tech.PCM, 0, "b", tech.DRAM, 0)
	if err == nil {
		t.Fatal("overlapping ranges should be rejected")
	}
}

// TestPartitionedMatchesLinearScan is a property test: binary-search routing
// agrees with a linear scan for arbitrary disjoint ranges and addresses.
func TestPartitionedMatchesLinearScan(t *testing.T) {
	f := func(starts []uint16, addrs []uint32) bool {
		// Build disjoint ranges from sorted unique starts.
		var ranges []AddrRange
		base := uint64(0)
		for _, s := range starts {
			start := base + uint64(s)%1000
			ranges = append(ranges, AddrRange{Start: start, End: start + 50})
			base = start + 100
		}
		pm, err := NewPartitionedMemory(ranges, "a", tech.PCM, 0, "b", tech.DRAM, 0)
		if err != nil {
			return false
		}
		for _, a := range addrs {
			addr := uint64(a) % (base + 1000)
			want := false
			for _, r := range ranges {
				if r.Contains(addr) {
					want = true
					break
				}
			}
			if pm.inRange(addr) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestBoundaryReplayEquivalence is the harness's load-bearing invariant:
// simulating prefix+backend in one piece produces exactly the same backend
// statistics as recording the prefix boundary once and replaying it.
func TestBoundaryReplayEquivalence(t *testing.T) {
	mkPrefix := func() []Level {
		return []Level{
			{Cache: cache.New(cache.Config{Name: "L1", Size: 512, LineSize: 64, Assoc: 2}), Tech: tech.SRAML1},
			{Cache: cache.New(cache.Config{Name: "L2", Size: 2048, LineSize: 64, Assoc: 4}), Tech: tech.SRAML2},
		}
	}
	mkBackendLevels := func() []Level {
		return []Level{
			{Cache: cache.New(cache.Config{Name: "L3", Size: 8192, LineSize: 256, Assoc: 4}), Tech: tech.EDRAM},
		}
	}
	refs := randomRefs(30000, 1<<16, 0xabc)

	// Path A: full hierarchy in one piece.
	memA := NewSimpleMemory("m", tech.PCM, 1<<20)
	full := mustHierarchy(t, append(mkPrefix(), mkBackendLevels()...), memA)
	full.AccessBatch(refs)
	full.Flush()

	// Path B: prefix with recorder, then replay into the backend.
	rec := NewRecordingMemory(64)
	pre := mustHierarchy(t, mkPrefix(), rec)
	pre.AccessBatch(refs)
	pre.Flush()
	memB := NewSimpleMemory("m", tech.PCM, 1<<20)
	backend := mustHierarchy(t, mkBackendLevels(), memB)
	backend.Replay(rec.Stream())

	// Backend cache statistics must be identical.
	gotL3 := backend.Snapshot()[0].Stats
	wantL3 := full.Levels()[2].Stats
	if gotL3 != wantL3 {
		t.Errorf("backend L3 stats diverge:\n got %+v\nwant %+v", gotL3, wantL3)
	}
	if memA.Stats() != memB.Stats() {
		t.Errorf("memory stats diverge:\n got %+v\nwant %+v", memB.Stats(), memA.Stats())
	}
}

// randomRefs generates a deterministic mixed load/store stream.
func randomRefs(n int, addrSpace uint64, seed uint64) []trace.Ref {
	rng := rand.New(rand.NewPCG(seed, 17))
	refs := make([]trace.Ref, n)
	for i := range refs {
		k := trace.Load
		if rng.Uint64N(3) == 0 {
			k = trace.Store
		}
		refs[i] = trace.Ref{Addr: rng.Uint64N(addrSpace) &^ 7, Size: 8, Kind: k}
	}
	return refs
}

func TestRecordingMemoryLabels(t *testing.T) {
	rec := NewRecordingMemory(64)
	rec.Load(0, 64)
	rec.Store(64, 64)
	refs := rec.Refs()
	if len(refs) != 2 {
		t.Fatalf("recorded %d refs", len(refs))
	}
	if refs[0].Kind != trace.Load || refs[1].Kind != trace.Store {
		t.Fatal("kinds not preserved")
	}
	mods := rec.Modules()
	if mods[0].Stats.Loads != 1 || mods[0].Stats.Stores != 1 {
		t.Fatalf("recording stats = %+v", mods[0].Stats)
	}
}

// TestConservationOfTraffic: every L1 miss produces exactly one fetch at
// the next level, so for any stream, loads at level i+1 equal misses at
// level i plus... (write-backs are stores). Checked via a random stream.
func TestConservationOfTraffic(t *testing.T) {
	h, mem := twoLevel(t)
	h.AccessBatch(randomRefs(20000, 1<<14, 7))
	h.Flush()
	ls := h.Levels()
	l1, l2 := ls[0].Stats, ls[1].Stats

	// Every L1 miss fetches one line from L2; every L1 write-back (incl.
	// flushed dirt) stores one line to L2.
	if l2.Loads != l1.Misses() {
		t.Errorf("L2 loads = %d, want L1 misses = %d", l2.Loads, l1.Misses())
	}
	if l2.Stores != l1.WriteBacks+l1.FlushedDirt {
		t.Errorf("L2 stores = %d, want L1 writebacks+flushed = %d", l2.Stores, l1.WriteBacks+l1.FlushedDirt)
	}
	if mem.Stats().Loads != l2.Misses() {
		t.Errorf("mem loads = %d, want L2 misses = %d", mem.Stats().Loads, l2.Misses())
	}
	if mem.Stats().Stores != l2.WriteBacks+l2.FlushedDirt {
		t.Errorf("mem stores = %d, want L2 writebacks+flushed = %d", mem.Stats().Stores, l2.WriteBacks+l2.FlushedDirt)
	}
}

func TestWriteThroughHierarchy(t *testing.T) {
	mem := NewSimpleMemory("mem", tech.DRAM, 1<<20)
	l1 := cache.New(cache.Config{Name: "L1wt", Size: 256, LineSize: 64, Assoc: 0, WriteThrough: true})
	h := mustHierarchy(t, []Level{{Cache: l1, Tech: tech.SRAML1}}, mem)
	// Store miss: propagates to memory, does not allocate.
	h.AccessBatch([]trace.Ref{{Addr: 0, Size: 8, Kind: trace.Store}})
	if mem.Stats().Stores != 1 {
		t.Fatalf("memory stores = %d, want 1", mem.Stats().Stores)
	}
	if mem.Stats().Loads != 0 {
		t.Fatalf("memory loads = %d (no-write-allocate must not fill)", mem.Stats().Loads)
	}
	// Load then store hit: store still propagates.
	h.AccessBatch([]trace.Ref{{Addr: 0, Size: 8, Kind: trace.Load}})
	h.AccessBatch([]trace.Ref{{Addr: 0, Size: 8, Kind: trace.Store}})
	if mem.Stats().Stores != 2 {
		t.Fatalf("memory stores = %d, want 2 (write-through on hit)", mem.Stats().Stores)
	}
	// Nothing dirty remains anywhere.
	h.Flush()
	if mem.Stats().Stores != 2 {
		t.Fatal("flush emitted stores from a write-through cache")
	}
}

func TestNextLinePrefetcher(t *testing.T) {
	mem := NewSimpleMemory("mem", tech.DRAM, 1<<20)
	l1 := cache.New(cache.Config{Name: "L1", Size: 1024, LineSize: 64, Assoc: 0})
	h := mustHierarchy(t, []Level{{Cache: l1, Tech: tech.SRAML1, PrefetchNext: 2}}, mem)
	// One demand miss triggers two prefetches: memory sees 3 loads.
	h.AccessBatch([]trace.Ref{{Addr: 0, Size: 8, Kind: trace.Load}})
	if mem.Stats().Loads != 3 {
		t.Fatalf("memory loads = %d, want 3 (demand + 2 prefetch)", mem.Stats().Loads)
	}
	// The prefetched lines now hit without further memory traffic (hits
	// do not trigger the prefetcher — only misses do).
	h.AccessBatch([]trace.Ref{{Addr: 64, Size: 8, Kind: trace.Load}})
	h.AccessBatch([]trace.Ref{{Addr: 128, Size: 8, Kind: trace.Load}})
	if mem.Stats().Loads != 3 {
		t.Fatalf("memory loads = %d, want 3 (prefetched lines hit)", mem.Stats().Loads)
	}
	if got := l1.Stats().Prefetches; got != 2 {
		t.Fatalf("prefetches = %d, want 2", got)
	}
}

func TestPrefetcherOnlyOnLoadMisses(t *testing.T) {
	mem := NewSimpleMemory("mem", tech.DRAM, 1<<20)
	l1 := cache.New(cache.Config{Name: "L1", Size: 1024, LineSize: 64, Assoc: 0})
	h := mustHierarchy(t, []Level{{Cache: l1, Tech: tech.SRAML1, PrefetchNext: 4}}, mem)
	h.AccessBatch([]trace.Ref{{Addr: 4096, Size: 8, Kind: trace.Store}})
	// A store miss write-allocates (1 load) but must not prefetch.
	if mem.Stats().Loads != 1 {
		t.Fatalf("memory loads = %d, want 1 (no prefetch on stores)", mem.Stats().Loads)
	}
}
