// Package trace defines the memory-reference stream that connects workload
// generators to the hierarchy simulator.
//
// The paper instruments running binaries with PEBIL and feeds the resulting
// address stream to a cache simulator online, without ever materializing a
// trace on disk. This package reproduces that architecture: workloads are
// instrumented Go kernels that push references into a Sink as they compute,
// and the simulator is a Sink. Nothing is buffered beyond small batches.
//
// There is one delivery protocol: Sink.AccessBatch, which takes references
// many at a time, so the cost of crossing the sink boundary — an interface
// dispatch, a bounds check, a stats update — is paid once per batch instead
// of once per reference. Producers that compute one reference at a time add
// them to a Batcher, which hands them downstream DefaultBatchRefs at a time.
// Packed is the replayable form: the delta-encoded boundary store, walked
// block by block through Batches and Replay. How a stream is cut into
// batches never changes the result: every sink ends in exactly the state
// one-reference batches would leave it in.
package trace

// Kind distinguishes loads from stores. The distinction is essential to the
// paper's NVM analysis because non-volatile technologies have strongly
// asymmetric read/write latency and energy.
type Kind uint8

const (
	// Load is a read reference.
	Load Kind = iota
	// Store is a write reference.
	Store
)

// String returns "load" or "store".
func (k Kind) String() string {
	if k == Store {
		return "store"
	}
	return "load"
}

// Ref is a single memory reference: an address, a size in bytes, and whether
// it is a load or a store. Addresses are virtual byte addresses within the
// workload's simulated address space.
type Ref struct {
	Addr uint64
	Size uint32
	Kind Kind
}

// Bytes returns the reference's accounted transfer size. A degenerate
// zero-size reference (a bare address touch) is normalized to one byte so
// every consumer — the hierarchy simulator, counting sinks, traffic models —
// charges it identically.
func (r Ref) Bytes() uint64 {
	if r.Size == 0 {
		return 1
	}
	return uint64(r.Size)
}

// Sink consumes a stream of memory references in batches. Implementations
// include the hierarchy simulator, counting sinks, and the packed boundary
// store. AccessBatch must tolerate being called many millions of times;
// implementations should avoid allocation.
type Sink interface {
	// AccessBatch processes refs in order. The slice is only valid for
	// the duration of the call — callers reuse their batch buffers — so
	// implementations that retain references must copy them.
	AccessBatch(refs []Ref)
}

// Flusher is implemented by sinks that buffer state which must be drained
// when the reference stream ends (for example, dirty lines that should be
// written back at the end of a measurement epoch).
type Flusher interface {
	Flush()
}

// FlushIfPossible flushes s if it implements Flusher.
func FlushIfPossible(s Sink) {
	if f, ok := s.(Flusher); ok {
		f.Flush()
	}
}

// SinkFunc adapts a batch function to the Sink interface.
type SinkFunc func(refs []Ref)

// AccessBatch calls f(refs).
func (f SinkFunc) AccessBatch(refs []Ref) { f(refs) }

// Null is a Sink that discards all references. Useful for running a workload
// purely for its side effects (e.g. timing the generator itself).
type Null struct{}

// AccessBatch discards refs.
func (Null) AccessBatch([]Ref) {}

// Counter is a Sink that counts loads, stores, and bytes moved. The zero
// value is ready to use.
type Counter struct {
	Loads      uint64
	Stores     uint64
	LoadBytes  uint64
	StoreBytes uint64
}

// AccessBatch counts refs, accumulating into locals so the counter fields
// are touched once per batch rather than once per reference.
func (c *Counter) AccessBatch(refs []Ref) {
	var loads, stores, loadB, storeB uint64
	for i := range refs {
		if refs[i].Kind == Store {
			stores++
			storeB += refs[i].Bytes()
		} else {
			loads++
			loadB += refs[i].Bytes()
		}
	}
	c.Loads += loads
	c.Stores += stores
	c.LoadBytes += loadB
	c.StoreBytes += storeB
}

// Total returns the total number of references seen.
func (c *Counter) Total() uint64 { return c.Loads + c.Stores }

// Reset zeroes all counters.
func (c *Counter) Reset() { *c = Counter{} }

// Recorder is a Sink that records references for deterministic replay of
// short streams in tests; production streams stay online or record into
// Packed.
type Recorder struct {
	Refs []Ref
}

// AccessBatch appends a copy of refs.
func (rec *Recorder) AccessBatch(refs []Ref) { rec.Refs = append(rec.Refs, refs...) }

// Replay pushes every recorded reference into sink as one batch and flushes
// it.
func (rec *Recorder) Replay(sink Sink) {
	sink.AccessBatch(rec.Refs)
	FlushIfPossible(sink)
}

// Len returns the number of recorded references.
func (rec *Recorder) Len() int { return len(rec.Refs) }

// Reset drops all recorded references but keeps capacity.
func (rec *Recorder) Reset() { rec.Refs = rec.Refs[:0] }
