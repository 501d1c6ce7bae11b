package trace

import (
	"encoding/binary"
	"math/bits"
)

// BlockRefs is the number of references per packed block — the granularity
// at which a Packed stream decodes, replays, and honors cancellation. It
// matches the experiment harness's replay-chunk size: large enough that
// per-block bookkeeping vanishes in replay throughput, small enough that a
// cancelled evaluation aborts within a few milliseconds of simulated work.
const BlockRefs = 1 << 16

// refStructBytes is the in-memory size of one Ref (8-byte address + 4-byte
// size + kind, padded); the denominator of the packing ratio.
const refStructBytes = 16

// Packed record layout: one flags byte, then the address delta against the
// previous record as a little-endian integer of deltaWidth bytes, then (only
// when the size changed) the size as a uvarint. The low flag bits are
// bit0 = store, bit1 = size follows, bit2 = negative delta; bits 3-6 hold
// deltaWidth (0-8). Fixed-width deltas decode with a single unaligned word
// read instead of a byte-at-a-time varint loop — the decode is on the
// replay hot path — and never cost more bytes than the equivalent varint.
//
// The flag values are part of the persisted block format (internal/store
// writes encoded blocks to disk as they are): never renumber them.
const (
	flagStore    = 1 << 0
	flagHasSize  = 1 << 1
	flagNegDelta = 1 << 2

	packedWidthShift = 3
	packedWidthMask  = 0xf
)

// deltaMask selects the low w bytes of a little-endian word, for widths 0-7
// (width 8 reads a full word directly).
var deltaMask = [8]uint64{
	0,
	0xff,
	0xffff,
	0xffffff,
	0xffffffff,
	0xffffffffff,
	0xffffffffffff,
	0xffffffffffffff,
}

// packedBlock is one independently decodable run of up to BlockRefs
// references. The encoder context (previous address, sticky size) resets at
// every block boundary, so blocks can be decoded in isolation and a replay
// never touches more than one block's context at a time.
type packedBlock struct {
	data []byte
	n    int
}

// Packed is a compact in-memory reference stream: the boundary-store
// representation behind exp.WorkloadProfile. Delta-encoded addresses and
// sticky sizes cost a few bytes per reference against 16 for a raw Ref,
// since post-L3 boundary streams are dominated by small line-address deltas
// and long runs of identical transfer sizes.
//
// Packed implements Sink and BatchSink (encode) and Stream (decode), so it
// drops in anywhere a recorded []Ref used to flow. Records decode into a
// caller-provided batch buffer block by block; the packed bytes are the only
// resident copy of the stream.
type Packed struct {
	blocks []packedBlock
	n      int
	// encoder context of the open (last) block.
	prevAddr uint64
	prevSize uint32
}

// Access encodes one reference, opening a new block when the current one is
// full. It implements Sink.
func (p *Packed) Access(r Ref) {
	if len(p.blocks) == 0 || p.blocks[len(p.blocks)-1].n == BlockRefs {
		p.blocks = append(p.blocks, packedBlock{})
		p.prevAddr, p.prevSize = 0, 0
	}
	b := &p.blocks[len(p.blocks)-1]
	var flags byte
	if r.Kind == Store {
		flags |= flagStore
	}
	var delta uint64
	if r.Addr >= p.prevAddr {
		delta = r.Addr - p.prevAddr
	} else {
		delta = p.prevAddr - r.Addr
		flags |= flagNegDelta
	}
	width := (bits.Len64(delta) + 7) / 8
	flags |= byte(width) << packedWidthShift
	if r.Size != p.prevSize {
		flags |= flagHasSize
	}
	var scratch [8]byte
	binary.LittleEndian.PutUint64(scratch[:], delta)
	b.data = append(b.data, flags)
	b.data = append(b.data, scratch[:width]...)
	if flags&flagHasSize != 0 {
		b.data = binary.AppendUvarint(b.data, uint64(r.Size))
		p.prevSize = r.Size
	}
	p.prevAddr = r.Addr
	b.n++
	p.n++
}

// AccessBatch encodes refs in order. It implements BatchSink.
func (p *Packed) AccessBatch(refs []Ref) {
	for i := range refs {
		p.Access(refs[i])
	}
}

// Len returns the number of references stored.
func (p *Packed) Len() int { return p.n }

// Blocks returns the number of packed blocks.
func (p *Packed) Blocks() int { return len(p.blocks) }

// PackedBytes returns the resident encoded size of the stream.
func (p *Packed) PackedBytes() uint64 {
	var total uint64
	for i := range p.blocks {
		total += uint64(len(p.blocks[i].data))
	}
	return total
}

// RawBytes returns what the same stream would occupy as a raw []Ref — the
// baseline for the packing ratio.
func (p *Packed) RawBytes() uint64 { return uint64(p.n) * refStructBytes }

// DecodeBlock decodes block i into buf (reusing its capacity; buf may be
// nil) and returns the decoded references. The loop is the replay engine's
// second hot path after cache.Cache.Access: while at least a full word of
// encoded data remains, each fixed-width delta is extracted from one
// unaligned little-endian read; the last few records of a block fall back to
// byte-wise reads. A corrupt block — possible only through an encoder bug —
// panics on an out-of-range data index.
//
// Once encoding has finished, DecodeBlock only reads the packed bytes, so
// any number of goroutines may decode the same Packed concurrently — the
// same block or different ones — as long as each supplies its own buf. The
// fan-out scheduler (exp.RunJobs) relies on this: chunks of one workload
// group decode the workload's stream in parallel.
func (p *Packed) DecodeBlock(i int, buf []Ref) []Ref {
	b := &p.blocks[i]
	if cap(buf) < b.n {
		buf = make([]Ref, 0, BlockRefs)
	}
	buf = buf[:b.n]
	var prevAddr uint64
	var prevSize uint32
	data := b.data
	pos := 0
	for j := range buf {
		var flags byte
		var delta uint64
		if pos+9 <= len(data) {
			word := binary.LittleEndian.Uint64(data[pos:])
			flags = byte(word)
			width := int(flags>>packedWidthShift) & packedWidthMask
			if width == 8 {
				delta = binary.LittleEndian.Uint64(data[pos+1:])
			} else {
				delta = (word >> 8) & deltaMask[width]
			}
			pos += 1 + width
		} else {
			flags = data[pos]
			pos++
			width := int(flags>>packedWidthShift) & packedWidthMask
			for k := 0; k < width; k++ {
				delta |= uint64(data[pos]) << (8 * k)
				pos++
			}
		}
		if flags&flagNegDelta != 0 {
			prevAddr -= delta
		} else {
			prevAddr += delta
		}
		if flags&flagHasSize != 0 {
			s := uint64(data[pos])
			pos++
			if s >= 0x80 {
				s &= 0x7f
				for shift := uint(7); ; shift += 7 {
					c := data[pos]
					pos++
					s |= uint64(c&0x7f) << shift
					if c < 0x80 {
						break
					}
				}
			}
			prevSize = uint32(s)
		}
		// flagStore is bit 0 and Store == 1, so the kind is the masked
		// flag bit itself — no branch (asserted in the package tests).
		buf[j] = Ref{Addr: prevAddr, Size: prevSize, Kind: Kind(flags & flagStore)}
	}
	return buf
}

// EncodedBlock returns block i's encoded bytes and reference count — the
// unit the persistence layer (internal/store) content-addresses and writes
// to segment files. The returned slice aliases the stream's resident bytes;
// callers must not modify it.
func (p *Packed) EncodedBlock(i int) (data []byte, n int) {
	b := &p.blocks[i]
	return b.data, b.n
}

// AppendEncodedBlock appends one already-encoded block of n references,
// e.g. bytes mapped back from an on-disk segment. The slice is aliased, not
// copied (capacity is clamped so later appends can never scribble on it —
// the bytes may be a read-only mmap), which is the zero-copy handoff that
// lets a restored stream decode straight out of the page cache.
//
// A Packed reassembled this way is for decoding: calling Access after
// appending a partial (non-BlockRefs) encoded block would resume that
// block with a reset encoder context and corrupt it, so restored streams
// must be treated as read-only.
func (p *Packed) AppendEncodedBlock(data []byte, n int) {
	p.blocks = append(p.blocks, packedBlock{data: data[:len(data):len(data)], n: n})
	p.n += n
	p.prevAddr, p.prevSize = 0, 0
}

// Batches decodes the stream block by block into buf and passes each batch
// to fn, in stream order. It implements Stream.
func (p *Packed) Batches(buf []Ref, fn func([]Ref) error) error {
	if cap(buf) == 0 && len(p.blocks) > 0 {
		buf = make([]Ref, 0, BlockRefs)
	}
	for i := range p.blocks {
		if err := fn(p.DecodeBlock(i, buf)); err != nil {
			return err
		}
	}
	return nil
}

// Replay pushes the whole stream into sink batch by batch and flushes it.
func (p *Packed) Replay(sink Sink) { ReplayStream(p, sink) }

// Refs materializes the stream as a fresh []Ref. It allocates the full raw
// footprint the packed form exists to avoid; offline tools use it, replay
// paths should use Batches.
func (p *Packed) Refs() []Ref {
	out := make([]Ref, 0, p.n)
	p.Batches(nil, func(refs []Ref) error {
		out = append(out, refs...)
		return nil
	})
	return out
}

// Reset drops all stored references but keeps allocated block capacity.
func (p *Packed) Reset() {
	for i := range p.blocks {
		p.blocks[i].data = p.blocks[i].data[:0]
		p.blocks[i].n = 0
	}
	p.blocks = p.blocks[:0]
	p.n = 0
	p.prevAddr, p.prevSize = 0, 0
}
