package trace

import (
	"math/rand"
	"testing"
)

// TestBatchCutEquivalence checks the batch contract on the package's sinks:
// one whole batch, random cuts and one-reference batches leave Counter and
// Recorder in identical states, and Recorder.Replay reproduces the stream.
func TestBatchCutEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	refs := randRefs(rng, 10000)

	var perRef, cut, whole Counter
	var perRefRec, cutRec Recorder
	for i := range refs {
		perRef.AccessBatch(refs[i : i+1])
		perRefRec.AccessBatch(refs[i : i+1])
	}
	for lo := 0; lo < len(refs); {
		hi := min(lo+rng.Intn(300), len(refs))
		cut.AccessBatch(refs[lo:hi])
		cutRec.AccessBatch(refs[lo:hi])
		lo = hi
	}
	whole.AccessBatch(refs)
	if cut != perRef || whole != perRef {
		t.Fatalf("Counter diverges: cut %+v, whole %+v, one-ref %+v", cut, whole, perRef)
	}
	for i := range refs {
		if perRefRec.Refs[i] != refs[i] || cutRec.Refs[i] != refs[i] {
			t.Fatalf("Recorder ref %d = %+v / %+v, want %+v", i, perRefRec.Refs[i], cutRec.Refs[i], refs[i])
		}
	}

	var replayed Counter
	cutRec.Replay(&replayed)
	if replayed != perRef {
		t.Fatalf("Replay count %+v, want %+v", replayed, perRef)
	}
}

func TestBatcherDrainsInOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	refs := randRefs(rng, 1000)

	var got []Ref
	b := NewBatcher(SinkFunc(func(batch []Ref) {
		if len(batch) > 64 {
			t.Fatalf("batch of %d exceeds buffer capacity", len(batch))
		}
		got = append(got, batch...)
	}), 64)
	for _, r := range refs {
		b.Add(r)
	}
	b.Drain()
	if len(got) != len(refs) {
		t.Fatalf("drained %d refs, want %d", len(got), len(refs))
	}
	for i := range refs {
		if got[i] != refs[i] {
			t.Fatalf("ref %d = %+v, want %+v", i, got[i], refs[i])
		}
	}
}

// flushSpy records whether Flush reached the destination sink.
type flushSpy struct {
	Counter
	flushed int
}

func (f *flushSpy) Flush() { f.flushed++ }

// TestBatcherDrainVsFlush: Drain delivers the buffered references but
// leaves flushing the destination (draining simulator state) to its owner.
func TestBatcherDrainVsFlush(t *testing.T) {
	var spy flushSpy
	b := NewBatcher(&spy, 8)
	b.Add(Ref{Addr: 1, Size: 8})
	b.Drain()
	if spy.flushed != 0 {
		t.Fatal("Drain must not flush the destination")
	}
	if spy.Total() != 1 {
		t.Fatalf("Drain delivered %d refs, want 1", spy.Total())
	}
}
