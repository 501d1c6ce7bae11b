package trace

import (
	"fmt"
	"math/rand"
	"testing"
)

// randRefs generates a stream shaped like a post-L3 boundary stream: mostly
// line-sized transfers over a handful of regions with small strides, plus a
// sprinkling of far jumps and odd sizes.
func randRefs(rng *rand.Rand, n int) []Ref {
	refs := make([]Ref, n)
	addr := uint64(rng.Intn(1 << 30))
	size := uint32(64)
	for i := range refs {
		switch rng.Intn(16) {
		case 0: // far jump
			addr = uint64(rng.Intn(1 << 40))
		case 1: // backward stride
			addr -= uint64(rng.Intn(4096))
		default: // forward stride
			addr += uint64(rng.Intn(256))
		}
		if rng.Intn(32) == 0 {
			size = uint32(1 + rng.Intn(512))
		}
		kind := Load
		if rng.Intn(3) == 0 {
			kind = Store
		}
		refs[i] = Ref{Addr: addr, Size: size, Kind: kind}
	}
	return refs
}

// TestKindFlagInvariant pins the layout the branchless decode relies on:
// the store flag is bit 0 and equals the Store kind value.
func TestKindFlagInvariant(t *testing.T) {
	if flagStore != 1 || Kind(flagStore) != Store || Load != 0 {
		t.Fatal("packed decode relies on flagStore == byte(Store) and Load == 0")
	}
}

func TestPackedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 7, BlockRefs - 1, BlockRefs, BlockRefs + 1, 3*BlockRefs + 100} {
		refs := randRefs(rng, n)
		var p Packed
		p.AccessBatch(refs)
		if p.Len() != n {
			t.Fatalf("n=%d: Len() = %d", n, p.Len())
		}
		wantBlocks := (n + BlockRefs - 1) / BlockRefs
		if p.Blocks() != wantBlocks {
			t.Fatalf("n=%d: Blocks() = %d, want %d", n, p.Blocks(), wantBlocks)
		}
		got := p.Refs()
		if len(got) != n {
			t.Fatalf("n=%d: Refs() returned %d refs", n, len(got))
		}
		for i := range refs {
			if got[i] != refs[i] {
				t.Fatalf("n=%d: ref %d = %+v, want %+v", n, i, got[i], refs[i])
			}
		}
	}
}

func TestPackedPerRefEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	refs := randRefs(rng, 2*BlockRefs+17)
	var perRef, batched Packed
	for _, r := range refs {
		perRef.Access(r)
	}
	batched.AccessBatch(refs)
	if perRef.PackedBytes() != batched.PackedBytes() || perRef.Len() != batched.Len() {
		t.Fatalf("per-ref and batched encodes diverge: %d/%d bytes, %d/%d refs",
			perRef.PackedBytes(), batched.PackedBytes(), perRef.Len(), batched.Len())
	}
}

func TestPackedSize(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	refs := randRefs(rng, 200000)
	var p Packed
	p.AccessBatch(refs)
	if p.RawBytes() != uint64(len(refs))*16 {
		t.Fatalf("RawBytes() = %d", p.RawBytes())
	}
	// The acceptance bar for the boundary store is <=60% of the raw
	// footprint; this synthetic stream has more entropy than real boundary
	// streams, so it must still clear the bar with margin.
	if p.PackedBytes() > p.RawBytes()*60/100 {
		t.Fatalf("packed %d bytes > 60%% of raw %d bytes", p.PackedBytes(), p.RawBytes())
	}
}

func TestPackedReplayAndStream(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	refs := randRefs(rng, BlockRefs+333)
	var p Packed
	p.AccessBatch(refs)

	var c Counter
	p.Replay(&c)
	var want Counter
	want.AccessBatch(refs)
	if c != want {
		t.Fatalf("Replay counted %+v, want %+v", c, want)
	}

	// Batches must respect the scratch buffer's capacity contract and cover
	// the stream in order.
	buf := make([]Ref, 0, BlockRefs)
	var seen int
	err := p.Batches(buf, func(b []Ref) error {
		for i := range b {
			if b[i] != refs[seen+i] {
				t.Fatalf("batch ref %d = %+v, want %+v", seen+i, b[i], refs[seen+i])
			}
		}
		seen += len(b)
		return nil
	})
	if err != nil || seen != len(refs) {
		t.Fatalf("Batches: err=%v seen=%d want=%d", err, seen, len(refs))
	}
}

func TestPackedReset(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	refs := randRefs(rng, 1000)
	var p Packed
	p.AccessBatch(refs)
	p.Reset()
	if p.Len() != 0 || p.Blocks() != 0 || p.PackedBytes() != 0 {
		t.Fatalf("Reset left state: len=%d blocks=%d bytes=%d", p.Len(), p.Blocks(), p.PackedBytes())
	}
	p.AccessBatch(refs)
	got := p.Refs()
	for i := range refs {
		if got[i] != refs[i] {
			t.Fatalf("post-Reset ref %d = %+v, want %+v", i, got[i], refs[i])
		}
	}
}

// TestPackedConcurrentDecodeFanout exercises the concurrency contract the
// fan-out replay scheduler depends on: once encoding is done, goroutines
// may decode the same Packed — including the very same block — in parallel,
// each into a private buffer, and all observe identical references. Run
// under -race this doubles as the data-race proof for shared decoding.
func TestPackedConcurrentDecodeFanout(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	refs := randRefs(rng, 3*BlockRefs/2) // two blocks, one partial
	p := &Packed{}
	p.AccessBatch(refs)
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			var buf []Ref
			for it := 0; it < 4; it++ {
				for i := 0; i < p.Blocks(); i++ {
					buf = p.DecodeBlock(i, buf)
					base := i * BlockRefs
					for j, r := range buf {
						if r != refs[base+j] {
							done <- errDecodeMismatch(g, i, j)
							return
						}
					}
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// errDecodeMismatch keeps the goroutine body above allocation-obvious.
func errDecodeMismatch(g, block, j int) error {
	return fmt.Errorf("goroutine %d: block %d ref %d diverged under concurrent decode", g, block, j)
}

// FuzzPackedRoundTrip drives the packed codec from raw fuzz bytes: each
// 10-byte window becomes one reference (arbitrary address, size, kind), the
// stream is encoded batch-first and decoded back, and every field must
// survive. The seed corpus pins the shapes that matter: empty streams,
// max-width deltas, sign flips, and sticky-size runs.
func FuzzPackedRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add(bytesOf(0xff, 40))
	f.Add(bytesOf(0x00, 40))
	f.Add(bytesOf(0x80, 95))
	f.Fuzz(func(t *testing.T, data []byte) {
		var refs []Ref
		for i := 0; i+10 <= len(data); i += 10 {
			var addr uint64
			for j := 0; j < 8; j++ {
				addr |= uint64(data[i+j]) << (8 * j)
			}
			refs = append(refs, Ref{
				Addr: addr,
				Size: uint32(data[i+8]) | uint32(data[i+9])<<8,
				Kind: Kind(data[i] & 1),
			})
		}
		var p Packed
		// Mix per-ref and batched encoding; they must be equivalent.
		half := len(refs) / 2
		for _, r := range refs[:half] {
			p.Access(r)
		}
		p.AccessBatch(refs[half:])
		if p.Len() != len(refs) {
			t.Fatalf("Len() = %d, want %d", p.Len(), len(refs))
		}
		got := p.Refs()
		for i := range refs {
			if got[i] != refs[i] {
				t.Fatalf("ref %d = %+v, want %+v", i, got[i], refs[i])
			}
		}
	})
}

// bytesOf builds a repeated-byte seed input.
func bytesOf(b byte, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = b
	}
	return out
}
