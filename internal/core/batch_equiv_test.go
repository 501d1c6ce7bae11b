package core

import (
	"math/rand/v2"
	"testing"

	"hybridmem/internal/cache"
	"hybridmem/internal/tech"
	"hybridmem/internal/trace"
)

// raggedBatches splits refs into deterministic uneven batches (including
// empty and single-ref ones) so batched delivery exercises every split
// shape, not just round block sizes.
func raggedBatches(refs []trace.Ref, seed uint64) [][]trace.Ref {
	rng := rand.New(rand.NewPCG(seed, 99))
	var out [][]trace.Ref
	for len(refs) > 0 {
		n := int(rng.Uint64N(97)) // 0..96: empty batches must be harmless
		if n > len(refs) {
			n = len(refs)
		}
		out = append(out, refs[:n])
		refs = refs[n:]
	}
	return out
}

// mixedRefs is randomRefs with varied sizes, including line-straddling and
// zero-size references, to drive both the batch fast path and the split
// fallback.
func mixedRefs(n int, addrSpace uint64, seed uint64) []trace.Ref {
	rng := rand.New(rand.NewPCG(seed, 23))
	refs := make([]trace.Ref, n)
	for i := range refs {
		k := trace.Load
		if rng.Uint64N(3) == 0 {
			k = trace.Store
		}
		var size uint32
		switch rng.Uint64N(8) {
		case 0:
			size = 0 // treated as 1 byte
		case 1:
			size = uint32(1 + rng.Uint64N(300)) // may straddle lines
		default:
			size = 8
		}
		refs[i] = trace.Ref{Addr: rng.Uint64N(addrSpace), Size: size, Kind: k}
	}
	return refs
}

// TestAccessBatchEquivalence is the batch engine's load-bearing invariant:
// delivering a stream through Hierarchy.AccessBatch in arbitrary batch
// sizes produces byte-for-byte the statistics of one-reference batches —
// every cache level, write-back counts, and the memory terminal — across
// write-back, write-through, prefetching, cacheless, and partitioned-memory
// hierarchies.
func TestAccessBatchEquivalence(t *testing.T) {
	builders := map[string]func(t *testing.T) *Hierarchy{
		"two-level": func(t *testing.T) *Hierarchy {
			h, _ := twoLevel(t)
			return h
		},
		"write-through-prefetch": func(t *testing.T) *Hierarchy {
			return mustHierarchy(t, []Level{
				{Cache: cache.New(cache.Config{Name: "L1wt", Size: 512, LineSize: 64, Assoc: 2, WriteThrough: true}), Tech: tech.SRAML1},
				{Cache: cache.New(cache.Config{Name: "L2", Size: 4096, LineSize: 128, Assoc: 4}), Tech: tech.SRAML2, PrefetchNext: 2},
			}, NewSimpleMemory("mem", tech.DRAM, 1<<20))
		},
		"cacheless": func(t *testing.T) *Hierarchy {
			return mustHierarchy(t, nil, NewSimpleMemory("mem", tech.PCM, 1<<20))
		},
		"partitioned": func(t *testing.T) *Hierarchy {
			pm, err := NewPartitionedMemory(
				[]AddrRange{{Start: 0, End: 1 << 14}, {Start: 1 << 15, End: 1 << 16}},
				"nvm", tech.PCM, 1<<16, "dram", tech.DRAM, 1<<20)
			if err != nil {
				t.Fatal(err)
			}
			return mustHierarchy(t, []Level{
				{Cache: cache.New(cache.Config{Name: "L1", Size: 512, LineSize: 64, Assoc: 2}), Tech: tech.SRAML1},
			}, pm)
		},
	}
	for name, build := range builders {
		t.Run(name, func(t *testing.T) {
			for seed := uint64(1); seed <= 3; seed++ {
				refs := mixedRefs(20000, 1<<17, seed)

				scalar := build(t)
				for i := range refs {
					scalar.AccessBatch(refs[i : i+1])
				}
				scalar.Flush()

				batched := build(t)
				for _, batch := range raggedBatches(refs, seed) {
					batched.AccessBatch(batch)
				}
				batched.Flush()

				if scalar.Refs() != batched.Refs() {
					t.Fatalf("seed %d: ref counts diverge: %d vs %d", seed, scalar.Refs(), batched.Refs())
				}
				want, got := scalar.Snapshot(), batched.Snapshot()
				if len(want) != len(got) {
					t.Fatalf("seed %d: snapshot lengths diverge", seed)
				}
				for i := range want {
					if want[i].Stats != got[i].Stats {
						t.Errorf("seed %d: %s stats diverge:\nscalar %+v\nbatch  %+v",
							seed, want[i].Name, want[i].Stats, got[i].Stats)
					}
				}
			}
		})
	}
}

// TestBackendReplayBatchEquivalence closes the loop at the boundary-store
// level: recording a stream into the packed store and replaying it batch by
// batch must equal pushing the same raw refs in one-reference batches into
// an identical backend.
func TestBackendReplayBatchEquivalence(t *testing.T) {
	refs := mixedRefs(30000, 1<<16, 0xfeed)
	mkLevels := func() []Level {
		return []Level{
			{Cache: cache.New(cache.Config{Name: "L4", Size: 8192, LineSize: 256, Assoc: 4}), Tech: tech.EDRAM},
		}
	}

	var packed trace.Packed
	packed.AccessBatch(refs)

	replayed := mustHierarchy(t, mkLevels(), NewSimpleMemory("m", tech.PCM, 1<<20))
	replayed.Replay(&packed)

	direct := mustHierarchy(t, mkLevels(), NewSimpleMemory("m", tech.PCM, 1<<20))
	for i := range refs {
		direct.AccessBatch(refs[i : i+1])
	}
	direct.Flush()

	want, got := direct.Snapshot(), replayed.Snapshot()
	for i := range want {
		if want[i].Stats != got[i].Stats {
			t.Errorf("%s stats diverge:\nper-ref %+v\nreplay  %+v", want[i].Name, want[i].Stats, got[i].Stats)
		}
	}
}

// TestRecordingMemoryHugeRequestSplit is the regression test for the
// uint32 truncation bug: a request larger than the Ref size field must be
// recorded as multiple chunked references covering the full span, not
// silently truncated to the low 32 bits.
func TestRecordingMemoryHugeRequestSplit(t *testing.T) {
	const total = uint64(5)<<30 + 123 // > MaxUint32, not chunk-aligned
	rec := NewRecordingMemory(64)
	rec.Load(1<<20, total)
	rec.Store(1<<40, total)

	refs := rec.Refs()
	if len(refs) != 4 {
		t.Fatalf("recorded %d refs, want 4 (each request: one 2GiB chunk + remainder)", len(refs))
	}
	check := func(refs []trace.Ref, base uint64, kind trace.Kind) {
		t.Helper()
		var sum, next uint64 = 0, base
		for _, r := range refs {
			if r.Kind != kind {
				t.Fatalf("ref kind = %v, want %v", r.Kind, kind)
			}
			if r.Addr != next {
				t.Fatalf("chunk addr = %#x, want %#x (contiguous cover)", r.Addr, next)
			}
			sum += uint64(r.Size)
			next = r.Addr + uint64(r.Size)
		}
		if sum != total {
			t.Fatalf("chunk sizes sum to %d, want %d (truncation)", sum, total)
		}
	}
	check(refs[:2], 1<<20, trace.Load)
	check(refs[2:], 1<<40, trace.Store)

	// The recorder's own statistics must also carry the full size.
	st := rec.Modules()[0].Stats
	if st.LoadBits != total*8 || st.StoreBits != total*8 {
		t.Fatalf("recorder bits = %d/%d, want %d", st.LoadBits, st.StoreBits, total*8)
	}
}
