package trace

import (
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	if Load.String() != "load" {
		t.Errorf("Load.String() = %q", Load.String())
	}
	if Store.String() != "store" {
		t.Errorf("Store.String() = %q", Store.String())
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	c.AccessBatch([]Ref{
		{Addr: 0, Size: 8, Kind: Load},
		{Addr: 64, Size: 4, Kind: Store},
		{Addr: 128, Size: 2, Kind: Load},
	})
	if c.Loads != 2 || c.Stores != 1 {
		t.Fatalf("got %d loads %d stores, want 2/1", c.Loads, c.Stores)
	}
	if c.LoadBytes != 10 || c.StoreBytes != 4 {
		t.Fatalf("got %d/%d bytes, want 10/4", c.LoadBytes, c.StoreBytes)
	}
	if c.Total() != 3 {
		t.Fatalf("Total() = %d, want 3", c.Total())
	}
	c.Reset()
	if c.Total() != 0 {
		t.Fatalf("Total() after Reset = %d", c.Total())
	}
}

// TestCounterMatchesManualSum is a property test: for any reference
// sequence, counter totals equal independently computed sums.
func TestCounterMatchesManualSum(t *testing.T) {
	f := func(refs []Ref) bool {
		var c Counter
		c.AccessBatch(refs)
		var loads, stores, lb, sb uint64
		for _, r := range refs {
			if r.Kind == Store {
				stores++
				sb += r.Bytes()
			} else {
				loads++
				lb += r.Bytes()
			}
		}
		return c.Loads == loads && c.Stores == stores &&
			c.LoadBytes == lb && c.StoreBytes == sb
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestRefBytesNormalizesZero pins the zero-size convention: a Size==0
// reference is accounted as one byte everywhere (regression for the old
// inconsistency where the hierarchy charged 1 byte but Counter charged 0).
func TestRefBytesNormalizesZero(t *testing.T) {
	if got := (Ref{Size: 0}).Bytes(); got != 1 {
		t.Fatalf("zero-size Ref.Bytes() = %d, want 1", got)
	}
	if got := (Ref{Size: 8}).Bytes(); got != 8 {
		t.Fatalf("Ref{Size:8}.Bytes() = %d, want 8", got)
	}
	var c Counter
	c.AccessBatch([]Ref{{Addr: 64, Size: 0, Kind: Load}, {Addr: 128, Size: 0, Kind: Store}})
	if c.LoadBytes != 1 || c.StoreBytes != 1 {
		t.Fatalf("zero-size refs counted %d/%d bytes, want 1/1", c.LoadBytes, c.StoreBytes)
	}
}

// flushRecorder records the references it receives and counts Flush calls.
type flushRecorder struct {
	refs    []Ref
	flushes int
}

func (f *flushRecorder) AccessBatch(refs []Ref) { f.refs = append(f.refs, refs...) }

func (f *flushRecorder) Flush() { f.flushes++ }

func TestFlushIfPossible(t *testing.T) {
	fr := &flushRecorder{}
	FlushIfPossible(fr)
	if fr.flushes != 1 {
		t.Fatalf("flushes = %d, want 1", fr.flushes)
	}
	// A plain counter has no Flush; must not panic.
	FlushIfPossible(&Counter{})
}

func TestSinkFunc(t *testing.T) {
	var got []Ref
	s := SinkFunc(func(refs []Ref) { got = append(got, refs...) })
	s.AccessBatch([]Ref{{Addr: 7, Size: 1, Kind: Store}})
	if len(got) != 1 || got[0].Addr != 7 {
		t.Fatalf("SinkFunc recorded %v", got)
	}
}

func TestNullDiscards(t *testing.T) {
	// Null must accept anything without effect; this is a smoke test
	// that it satisfies Sink.
	var s Sink = Null{}
	s.AccessBatch([]Ref{{Addr: 42, Size: 8}})
}

func TestRecorderReplay(t *testing.T) {
	rec := &Recorder{}
	want := []Ref{
		{Addr: 100, Size: 8, Kind: Load},
		{Addr: 200, Size: 4, Kind: Store},
		{Addr: 300, Size: 2, Kind: Load},
	}
	for i := range want {
		rec.AccessBatch(want[i : i+1])
	}
	if rec.Len() != 3 {
		t.Fatalf("Len() = %d, want 3", rec.Len())
	}

	fr := &flushRecorder{}
	rec.Replay(fr)
	replayed := fr.refs
	if len(replayed) != len(want) {
		t.Fatalf("replayed %d refs, want %d", len(replayed), len(want))
	}
	for i := range want {
		if replayed[i] != want[i] {
			t.Errorf("ref %d: got %+v, want %+v", i, replayed[i], want[i])
		}
	}
	if fr.flushes != 1 {
		t.Errorf("Replay should flush once, got %d", fr.flushes)
	}

	rec.Reset()
	if rec.Len() != 0 {
		t.Fatalf("Len() after Reset = %d", rec.Len())
	}
}

// TestRecorderResetKeepsCapacity verifies Reset drops the refs but retains
// the backing array, so per-design-point reuse does not reallocate.
func TestRecorderResetKeepsCapacity(t *testing.T) {
	rec := &Recorder{}
	for i := 0; i < 1000; i++ {
		rec.AccessBatch([]Ref{{Addr: uint64(i), Size: 8}})
	}
	before := cap(rec.Refs)
	rec.Reset()
	if rec.Len() != 0 {
		t.Fatalf("Len() after Reset = %d, want 0", rec.Len())
	}
	if got := cap(rec.Refs); got != before {
		t.Fatalf("cap after Reset = %d, want %d (capacity must be retained)", got, before)
	}
	// The retained capacity must actually be reused.
	rec.AccessBatch([]Ref{{Addr: 1, Size: 8}})
	if cap(rec.Refs) != before {
		t.Fatalf("append after Reset reallocated: cap %d, want %d", cap(rec.Refs), before)
	}
}

// TestSinkFuncAsFlushTarget verifies a SinkFunc (a non-Flusher) passes
// through FlushIfPossible untouched and still receives accesses afterwards.
func TestSinkFuncAsFlushTarget(t *testing.T) {
	n := 0
	s := SinkFunc(func(refs []Ref) { n += len(refs) })
	FlushIfPossible(s)
	s.AccessBatch([]Ref{{Addr: 1, Size: 4}})
	if n != 1 {
		t.Fatalf("SinkFunc saw %d accesses, want 1", n)
	}
}

// TestRecorderRoundTrip is a property test: recording then replaying into a
// counter matches counting directly.
func TestRecorderRoundTrip(t *testing.T) {
	f := func(refs []Ref) bool {
		var direct Counter
		rec := &Recorder{}
		for i := range refs {
			direct.AccessBatch(refs[i : i+1])
			rec.AccessBatch(refs[i : i+1])
		}
		var replayed Counter
		rec.Replay(&replayed)
		return direct == replayed
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
