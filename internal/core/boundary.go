package core

import (
	"math"

	"hybridmem/internal/tech"
	"hybridmem/internal/trace"
)

// RecordingMemory is a Memory terminal that records the reference stream
// reaching it. Placed below the shared L1/L2/L3 SRAM prefix, it captures
// exactly the stream that any back end (an eDRAM/HMC L4, a DRAM cache over
// NVM, a bare or partitioned main memory) would observe, so one expensive
// full-stream simulation per workload serves every design point.
//
// The stream is captured directly into a trace.Packed — the delta-encoded
// block representation — so even a multi-hundred-million-reference boundary
// never materializes as raw 16-byte Refs while recording.
//
// The recorded stream preserves load/store distinction: loads are L3 line
// fetches; stores are dirty L3 evictions — the two traffic classes of the
// paper's Section III.B accounting.
type RecordingMemory struct {
	stream   trace.Packed
	lineSize uint32
	ms       memStats
}

// NewRecordingMemory returns a recorder expecting requests of the given
// transfer size (the line size of the level directly above it).
func NewRecordingMemory(lineSize uint64) *RecordingMemory {
	return &RecordingMemory{lineSize: uint32(lineSize)}
}

// record appends one reference, splitting requests whose size exceeds the
// Ref size field (uint32) into 2 GiB chunks rather than silently truncating
// them. Such requests cannot come from a cache level (lines are small) but
// can come from a workload streamed into a zero-level recording hierarchy.
func (m *RecordingMemory) record(addr, sizeBytes uint64, kind trace.Kind) {
	const chunk = 1 << 31
	for sizeBytes > math.MaxUint32 {
		m.stream.Access(trace.Ref{Addr: addr, Size: chunk, Kind: kind})
		addr += chunk
		sizeBytes -= chunk
	}
	m.stream.Access(trace.Ref{Addr: addr, Size: uint32(sizeBytes), Kind: kind})
}

// Load records a read reference.
func (m *RecordingMemory) Load(addr, sizeBytes uint64) {
	m.ms.load(sizeBytes)
	m.record(addr, sizeBytes, trace.Load)
}

// Store records a write reference.
func (m *RecordingMemory) Store(addr, sizeBytes uint64) {
	m.ms.store(sizeBytes)
	m.record(addr, sizeBytes, trace.Store)
}

// Modules reports the stream the recorder absorbed, attributed to a
// placeholder technology; callers normally discard it and replay Stream()
// into real back ends.
func (m *RecordingMemory) Modules() []LevelStats {
	return []LevelStats{{Name: "boundary", Tech: tech.DRAM, Stats: m.ms.stats}}
}

// Stream returns the recorded boundary stream in its packed form. The
// returned value shares the recorder's storage; record nothing further after
// taking it.
func (m *RecordingMemory) Stream() *trace.Packed { return &m.stream }

// Refs materializes the recorded boundary stream as a raw slice; replay
// paths should use Stream instead.
func (m *RecordingMemory) Refs() []trace.Ref { return m.stream.Refs() }
