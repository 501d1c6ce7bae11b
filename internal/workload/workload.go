// Package workload defines the benchmark workloads of the paper's Section
// IV.B and the machinery they share.
//
// The paper drives its simulator with PEBIL-instrumented binaries: NPB BT,
// SP, and CG; CORAL Graph500, Hashing, and AMG2013; and the Velvet genome
// assembler. This package reproduces each as an instrumented Go kernel: the
// kernel performs the benchmark's real computation over data laid out in a
// simulated virtual address space (an Arena) and emits every significant
// memory reference to a trace.Sink as it executes — online, exactly like the
// paper's framework, with no stored trace.
//
// Each workload is deterministic for a given configuration, so re-running
// one regenerates an identical reference stream; the experiment harness
// relies on this to compare designs on equal footing.
package workload

import (
	"fmt"
	"time"

	"hybridmem/internal/trace"
)

// Workload is one benchmark: metadata plus a deterministic kernel that
// streams its memory references into a sink while it computes.
type Workload interface {
	// Name returns the benchmark name (e.g. "BT", "Graph500").
	Name() string
	// Suite returns the originating suite ("NPB", "CORAL", "Application").
	Suite() string
	// Footprint returns the total bytes of simulated address space the
	// kernel touches.
	Footprint() uint64
	// RefTime returns the paper's Table 4 reference-system execution
	// time, used as T_ref in equation (1). Note the paper's accounting:
	// static energy is charged over the full Table 4 runtime while
	// dynamic energy comes from the reduced-iteration simulated stream;
	// this reproduction follows the same convention (see EXPERIMENTS.md).
	RefTime() time.Duration
	// Regions returns the named address regions of the workload's data
	// structures; the NDM oracle partitions over these.
	Regions() []Region
	// Run executes the kernel, emitting references into sink. Run may be
	// called multiple times; every call emits the identical stream.
	Run(sink trace.Sink)
}

// Options configures workload sizing.
type Options struct {
	// Scale divides the paper's Table 4 footprints (power of two; see
	// package design for the co-scaling rationale). Zero means
	// design.DefaultScale.
	Scale uint64
	// Iters overrides the number of outer iterations (solver iterations,
	// BFS roots, V-cycles...). Zero means each workload's default. The
	// paper likewise reduced iteration counts "to keep the simulation
	// time within reasonable limits".
	Iters int
}

// scaleOrDefault resolves the effective scale.
func (o Options) scaleOrDefault() uint64 {
	if o.Scale == 0 {
		return 64
	}
	return o.Scale
}

// itersOrDefault resolves the effective iteration count.
func (o Options) itersOrDefault(def int) int {
	if o.Iters <= 0 {
		return def
	}
	return o.Iters
}

// Region is a named, contiguous span of the simulated virtual address space
// holding one of a workload's data structures.
type Region struct {
	Name string
	Base uint64
	Size uint64
}

// End returns the first address past the region.
func (r Region) End() uint64 { return r.Base + r.Size }

// Contains reports whether addr falls inside the region.
func (r Region) Contains(addr uint64) bool { return addr >= r.Base && addr < r.End() }

// RegionError reports a reference outside a workload region — a malformed
// design point or kernel bug that would silently corrupt placement
// experiments. Region.Addr panics with a *RegionError; harness boundaries
// (exp.ProfileWorkloadOpts, exp.EvaluateCtx) recover it into a typed error
// so one request fails instead of the process.
type RegionError struct {
	// Region is the name of the region the offset missed.
	Region string
	// Offset is the out-of-bounds byte offset.
	Offset uint64
	// Size is the region's size in bytes.
	Size uint64
}

// Error implements the error interface.
func (e *RegionError) Error() string {
	return fmt.Sprintf("workload: offset %d out of region %s (size %d)", e.Offset, e.Region, e.Size)
}

// Addr returns the address at the given byte offset. An out-of-bounds
// offset panics with a typed *RegionError (see RegionError for how the
// harness converts it into a per-request failure).
func (r Region) Addr(off uint64) uint64 {
	if off >= r.Size {
		panic(&RegionError{Region: r.Name, Offset: off, Size: r.Size})
	}
	return r.Base + off
}

// Idx returns the address of element i of an array of elemSize-byte
// elements based at the region start.
func (r Region) Idx(i, elemSize uint64) uint64 { return r.Addr(i * elemSize) }

// String formats the region.
func (r Region) String() string {
	return fmt.Sprintf("%s@[%#x,%#x) (%d bytes)", r.Name, r.Base, r.End(), r.Size)
}

// pageAlign is the alignment of arena allocations. Distinct structures live
// on distinct pages, like distinct mmap'd allocations in a real process.
const pageAlign = 4096

// Arena lays out a workload's simulated virtual address space. The zero
// value allocates from a non-zero base (so that address 0 is never valid).
type Arena struct {
	next    uint64
	regions []Region
}

// Alloc reserves size bytes under the given name, page-aligned, and returns
// the region.
func (a *Arena) Alloc(name string, size uint64) Region {
	if a.next == 0 {
		a.next = 1 << 20 // leave the first MB unmapped, like a real process
	}
	if size == 0 {
		size = 1
	}
	base := a.next
	r := Region{Name: name, Base: base, Size: size}
	a.regions = append(a.regions, r)
	a.next = (base + size + pageAlign - 1) &^ (pageAlign - 1)
	// Guard page between structures.
	a.next += pageAlign
	return r
}

// Regions returns all allocated regions in allocation order.
func (a *Arena) Regions() []Region { return append([]Region(nil), a.regions...) }

// Footprint returns the total bytes allocated (excluding alignment gaps).
func (a *Arena) Footprint() uint64 {
	var total uint64
	for _, r := range a.regions {
		total += r.Size
	}
	return total
}

// Mem emits references for a kernel: fixed-size load/store helpers for the
// common 8-byte (float64/int64) and 4-byte (int32) element sizes over a
// batching emitter, so kernels deliver references to the simulator
// trace.DefaultBatchRefs at a time instead of one interface call each. Mem
// is a value type sharing one buffer; kernels pass it freely to helper
// functions and call Flush once when their stream ends.
type Mem struct {
	b *trace.Batcher
}

// NewMem returns an emitter delivering batches into sink.
func NewMem(sink trace.Sink) Mem { return Mem{b: trace.NewBatcher(sink, 0)} }

// Flush drains buffered references downstream. It intentionally does not
// flush the sink itself: draining simulator state (dirty cache lines) is the
// profiler's decision, made after the kernel finishes.
func (m Mem) Flush() { m.b.Drain() }

// Load8 emits an 8-byte load at addr.
func (m Mem) Load8(addr uint64) { m.b.Add(trace.Ref{Addr: addr, Size: 8, Kind: trace.Load}) }

// Store8 emits an 8-byte store at addr.
func (m Mem) Store8(addr uint64) { m.b.Add(trace.Ref{Addr: addr, Size: 8, Kind: trace.Store}) }

// Load4 emits a 4-byte load at addr.
func (m Mem) Load4(addr uint64) { m.b.Add(trace.Ref{Addr: addr, Size: 4, Kind: trace.Load}) }

// Store4 emits a 4-byte store at addr.
func (m Mem) Store4(addr uint64) { m.b.Add(trace.Ref{Addr: addr, Size: 4, Kind: trace.Store}) }

// Load1 emits a 1-byte load at addr.
func (m Mem) Load1(addr uint64) { m.b.Add(trace.Ref{Addr: addr, Size: 1, Kind: trace.Load}) }

// Store1 emits a 1-byte store at addr.
func (m Mem) Store1(addr uint64) { m.b.Add(trace.Ref{Addr: addr, Size: 1, Kind: trace.Store}) }

// LoadN emits an n-byte load at addr.
func (m Mem) LoadN(addr, n uint64) {
	m.b.Add(trace.Ref{Addr: addr, Size: uint32(n), Kind: trace.Load})
}

// StoreN emits an n-byte store at addr.
func (m Mem) StoreN(addr, n uint64) {
	m.b.Add(trace.Ref{Addr: addr, Size: uint32(n), Kind: trace.Store})
}
