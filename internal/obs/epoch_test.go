package obs

import (
	"reflect"
	"testing"

	"hybridmem/internal/cache"
	"hybridmem/internal/core"
	"hybridmem/internal/tech"
	"hybridmem/internal/trace"
)

// testHierarchy builds a tiny two-level hierarchy (one 4KB cache over DRAM)
// for sampling tests.
func testHierarchy(t *testing.T) *core.Hierarchy {
	t.Helper()
	c := cache.New(cache.Config{Name: "L1", Size: 4096, LineSize: 64, Assoc: 4})
	h, err := core.NewHierarchy(
		[]core.Level{{Cache: c, Tech: tech.SRAML1}},
		core.NewSimpleMemory("DRAM", tech.DRAM, 1<<20),
	)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestEpochSamplerCutsAtInterval(t *testing.T) {
	h := testHierarchy(t)
	s := NewEpochSampler(h, 100)
	for i := 0; i < 250; i++ {
		s.AccessBatch([]trace.Ref{{Addr: uint64(i) * 64, Size: 8, Kind: trace.Load}})
	}
	s.Flush()
	series := s.Series()
	if len(series.Epochs) != 3 {
		t.Fatalf("got %d epochs, want 3 (100+100+50)", len(series.Epochs))
	}
	if series.Epochs[0].Refs != 100 || series.Epochs[1].Refs != 100 || series.Epochs[2].Refs != 50 {
		t.Fatalf("epoch refs = %d/%d/%d, want 100/100/50",
			series.Epochs[0].Refs, series.Epochs[1].Refs, series.Epochs[2].Refs)
	}
	if series.Epochs[2].EndRefs != 250 {
		t.Fatalf("final EndRefs = %d, want 250", series.Epochs[2].EndRefs)
	}
	if got := h.Refs(); got != 250 {
		t.Fatalf("hierarchy saw %d refs, want 250", got)
	}
	if series.CacheLevels != 1 || len(series.Levels) != 2 {
		t.Fatalf("levels = %v (cache %d), want [L1 DRAM] with 1 cache",
			series.Levels, series.CacheLevels)
	}
}

// TestEpochDeltasSumToCumulative is the core invariant: epoch deltas
// partition the cumulative statistics exactly.
func TestEpochDeltasSumToCumulative(t *testing.T) {
	h := testHierarchy(t)
	s := NewEpochSampler(h, 64)
	state := uint64(1)
	for i := 0; i < 1000; i++ {
		state = state*6364136223846793005 + 1442695040888963407
		kind := trace.Load
		if i%3 == 0 {
			kind = trace.Store
		}
		s.AccessBatch([]trace.Ref{{Addr: (state >> 16) % (64 << 10), Size: 8, Kind: kind}})
	}
	s.Flush()

	series := s.Series()
	final := h.Snapshot()
	for li, name := range series.Levels {
		var loadB, storeB, wbs uint64
		for _, ep := range series.Epochs {
			loadB += ep.Levels[li].LoadBytes
			storeB += ep.Levels[li].StoreBytes
			wbs += ep.Levels[li].WriteBacks
		}
		st := final[li].Stats
		if loadB != st.LoadBits/8 || storeB != st.StoreBits/8 {
			t.Errorf("%s: summed bytes %d/%d, cumulative %d/%d",
				name, loadB, storeB, st.LoadBits/8, st.StoreBits/8)
		}
		if wbs != st.WriteBacks {
			t.Errorf("%s: summed writebacks %d, cumulative %d", name, wbs, st.WriteBacks)
		}
	}
}

// TestEpochHitRateAndMPKI checks the derived metrics on a deterministic
// stream: epoch 1 re-touches epoch 0's lines, so it must be all hits.
func TestEpochHitRateAndMPKI(t *testing.T) {
	h := testHierarchy(t)
	s := NewEpochSampler(h, 32)
	// Epoch 0: 32 loads of 32 distinct lines (cold misses, 4KB working set
	// fits the cache exactly).
	for i := 0; i < 32; i++ {
		s.AccessBatch([]trace.Ref{{Addr: uint64(i) * 64, Size: 8, Kind: trace.Load}})
	}
	// Epoch 1: the same 32 lines again — pure hits.
	for i := 0; i < 32; i++ {
		s.AccessBatch([]trace.Ref{{Addr: uint64(i) * 64, Size: 8, Kind: trace.Load}})
	}
	s.Flush()
	eps := s.Series().Epochs
	if len(eps) != 2 {
		t.Fatalf("got %d epochs, want 2", len(eps))
	}
	if got := eps[0].Levels[0].HitRate; got != 0 {
		t.Errorf("cold epoch hit rate = %v, want 0", got)
	}
	// 32 misses in 32 refs = 1000 MPKI.
	if got := eps[0].Levels[0].MPKI; got != 1000 {
		t.Errorf("cold epoch MPKI = %v, want 1000", got)
	}
	if got := eps[1].Levels[0].HitRate; got != 1 {
		t.Errorf("warm epoch hit rate = %v, want 1", got)
	}
	if got := eps[1].Levels[0].MPKI; got != 0 {
		t.Errorf("warm epoch MPKI = %v, want 0", got)
	}
}

// TestEpochFlushCapturesWritebacks verifies dirty state drained by Flush is
// attributed to the final epoch instead of vanishing.
func TestEpochFlushCapturesWritebacks(t *testing.T) {
	h := testHierarchy(t)
	s := NewEpochSampler(h, 1000)
	for i := 0; i < 16; i++ {
		s.AccessBatch([]trace.Ref{{Addr: uint64(i) * 64, Size: 8, Kind: trace.Store}})
	}
	s.Flush()
	eps := s.Series().Epochs
	if len(eps) != 1 {
		t.Fatalf("got %d epochs, want 1 (partial, closed by Flush)", len(eps))
	}
	mem := eps[0].Levels[1]
	if mem.StoreBytes == 0 {
		t.Fatalf("flush write-backs not captured: memory store bytes = 0")
	}
}

func TestEpochSamplerEmptyRun(t *testing.T) {
	h := testHierarchy(t)
	s := NewEpochSampler(h, 100)
	s.Flush()
	if n := len(s.Series().Epochs); n != 0 {
		t.Fatalf("empty run produced %d epochs, want 0", n)
	}
}

func TestLiveRefCounter(t *testing.T) {
	before := RefsProcessed()
	h := testHierarchy(t)
	s := NewEpochSampler(h, 10)
	for i := 0; i < 25; i++ {
		s.AccessBatch([]trace.Ref{{Addr: uint64(i) * 64, Size: 8, Kind: trace.Load}})
	}
	s.Flush()
	if got := RefsProcessed() - before; got != 25 {
		t.Fatalf("live counter advanced by %d, want 25", got)
	}
}

// TestEpochSamplerHotPathAllocs pins the allocation-free hot-path claim:
// steady-state AccessBatch calls (no epoch cut) must not allocate.
func TestEpochSamplerHotPathAllocs(t *testing.T) {
	h := testHierarchy(t)
	s := NewEpochSampler(h, 1<<30) // never cuts during the measurement
	refs := make([]trace.Ref, 64)
	for i := range refs {
		refs[i] = trace.Ref{Addr: uint64(i) * 64, Size: 8, Kind: trace.Kind(i & 1)}
	}
	allocs := testing.AllocsPerRun(1000, func() { s.AccessBatch(refs) })
	if allocs != 0 {
		t.Fatalf("AccessBatch allocates %v objects/op, want 0", allocs)
	}
}

// TestEpochSamplerBatchEquivalence pins the batch path's exact-split
// contract: delivering a stream through AccessBatch in arbitrary batch
// sizes (including batches spanning several epoch boundaries) yields a
// Series identical to one-reference batches.
func TestEpochSamplerBatchEquivalence(t *testing.T) {
	state := uint64(42)
	refs := make([]trace.Ref, 5000)
	for i := range refs {
		state = state*6364136223846793005 + 1442695040888963407
		kind := trace.Load
		if state%3 == 0 {
			kind = trace.Store
		}
		refs[i] = trace.Ref{Addr: (state >> 16) % (64 << 10), Size: 8, Kind: kind}
	}

	perRef := NewEpochSampler(testHierarchy(t), 64)
	for i := range refs {
		perRef.AccessBatch(refs[i : i+1])
	}
	perRef.Flush()

	batched := NewEpochSampler(testHierarchy(t), 64)
	// Ragged batch sizes: below, equal to, and far above the epoch interval.
	for i, rest := 0, refs; len(rest) > 0; i++ {
		n := []int{1, 63, 64, 65, 300, 7}[i%6]
		if n > len(rest) {
			n = len(rest)
		}
		batched.AccessBatch(rest[:n])
		rest = rest[n:]
	}
	batched.Flush()

	a, b := perRef.Series(), batched.Series()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("batched Series diverges from per-ref:\nper-ref %+v\nbatched %+v", a, b)
	}
	if perRef.Refs() != batched.Refs() {
		t.Fatalf("ref counts diverge: %d vs %d", perRef.Refs(), batched.Refs())
	}
}
