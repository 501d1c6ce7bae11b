package trace

// DefaultBatchRefs is the buffer size of a Batcher constructed with size 0:
// large enough to amortize the batch boundary, small enough to stay resident
// in L1/L2 of the simulating host (4096 refs x 16 bytes = 64KB).
const DefaultBatchRefs = 4096

// Batcher adapts a per-reference producer to a Sink: Add calls accumulate
// into a fixed-capacity buffer that is handed downstream as one AccessBatch
// whenever it fills, and on Drain. It is the "small batching emitter" the
// workload kernels push through, preserving exact stream order.
type Batcher struct {
	dst Sink
	buf []Ref
}

// NewBatcher returns a Batcher over dst with the given buffer capacity in
// references (<=0 selects DefaultBatchRefs).
func NewBatcher(dst Sink, size int) *Batcher {
	if size <= 0 {
		size = DefaultBatchRefs
	}
	return &Batcher{dst: dst, buf: make([]Ref, 0, size)}
}

// Add buffers r, draining downstream when the buffer fills.
func (b *Batcher) Add(r Ref) {
	b.buf = append(b.buf, r)
	if len(b.buf) == cap(b.buf) {
		b.Drain()
	}
}

// Drain hands any buffered references downstream and empties the buffer.
// It does not flush the destination sink, so a producer can end or
// checkpoint its stream without draining dirty simulator state.
func (b *Batcher) Drain() {
	if len(b.buf) == 0 {
		return
	}
	b.dst.AccessBatch(b.buf)
	b.buf = b.buf[:0]
}
