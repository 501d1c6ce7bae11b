// Package core assembles cache levels and a main-memory terminal into the
// multi-level hierarchy simulator that is the paper's primary instrument.
//
// A Hierarchy is a trace.Sink: workloads stream references into it online,
// exactly as the paper's PEBIL-instrumented binaries stream into its cache
// simulator, and no trace is ever materialized. Misses propagate downward,
// write-allocate fetches count as loads on the level below, and dirty
// evictions count as stores on the level below (Section III.B).
//
// The package also provides the boundary-recording optimization used by the
// experiment harness: because every design in the paper shares the same
// L1/L2/L3 SRAM prefix, the post-L3 reference stream can be captured once
// per workload and replayed into each candidate back end (eDRAM/HMC L4,
// DRAM cache, NVM, partitioned memory) at a fraction of the cost.
package core

import (
	"fmt"

	"hybridmem/internal/cache"
	"hybridmem/internal/tech"
	"hybridmem/internal/trace"
)

// Level is one cache level paired with the technology that implements it.
type Level struct {
	Cache *cache.Cache
	Tech  tech.Tech
	// StaticCapacity overrides the capacity used for static-power
	// accounting (zero means the cache's configured size).
	StaticCapacity uint64
	// PrefetchNext enables a next-line prefetcher at this level: on a
	// demand load miss, the following N lines are fetched from below and
	// installed (if absent), trading extra downstream traffic for
	// spatial-locality hits.
	PrefetchNext int
}

// LevelStats is a snapshot of one level's configuration, technology, and
// accumulated statistics, in the form the performance model consumes.
type LevelStats struct {
	Name     string
	Tech     tech.Tech
	Capacity uint64
	Stats    cache.Stats
}

// Memory is the terminal of a hierarchy: it absorbs every load that missed
// all cache levels and every dirty write-back that reached the bottom.
type Memory interface {
	// Load records a read of sizeBytes at addr.
	Load(addr, sizeBytes uint64)
	// Store records a write of sizeBytes at addr.
	Store(addr, sizeBytes uint64)
	// Modules returns per-module statistics (one module for a uniform
	// memory, two for the NDM partitioned memory).
	Modules() []LevelStats
}

// Hierarchy chains cache levels over a Memory terminal and implements
// trace.Sink.
type Hierarchy struct {
	levels []Level
	mem    Memory
	refs   uint64 // total references accepted (denominator of AMAT, eq. 2)
}

// NewHierarchy builds a hierarchy from the given levels (ordered from the
// level closest to the CPU) and terminal memory. Line sizes must not shrink
// going down the hierarchy: each level's line must fit in one line of the
// level below, preserving inclusion-free simplicity of the transfer model.
func NewHierarchy(levels []Level, mem Memory) (*Hierarchy, error) {
	if mem == nil {
		return nil, fmt.Errorf("core: nil memory terminal")
	}
	lines := make([]uint64, len(levels))
	techs := make([]tech.Tech, len(levels))
	for i, l := range levels {
		lines[i], techs[i] = l.Cache.LineSize(), l.Tech
	}
	if err := CheckStack(lines, techs); err != nil {
		return nil, err
	}
	return &Hierarchy{levels: levels, mem: mem}, nil
}

// CheckStack reports why cache levels with the given line sizes and
// technologies, ordered from the CPU outward, cannot form a hierarchy, or
// nil. NewHierarchy applies it to built levels; design.Backend.Check applies
// it to level specs, so a design point can be checked without allocating
// its caches.
func CheckStack(lines []uint64, techs []tech.Tech) error {
	for i := 1; i < len(lines); i++ {
		if lines[i] < lines[i-1] {
			return fmt.Errorf("core: level %d line size %d smaller than level %d line size %d",
				i, lines[i], i-1, lines[i-1])
		}
	}
	for i, t := range techs {
		if err := t.Validate(); err != nil {
			return fmt.Errorf("core: level %d: %w", i, err)
		}
	}
	return nil
}

// AccessBatch feeds a batch of references into the top of the hierarchy,
// producing exactly the state len(refs) one-reference batches would.
// References that straddle a level-0 line boundary are split, as hardware
// would. It implements trace.Sink: the level-0 walk — cache pointer, line
// size, write-through policy — is hoisted out of the per-reference path, so
// the inner loop makes monomorphic calls into cache.Cache.Access with no
// interface hop, and zero-level hierarchies accumulate whole batches into
// the memory terminal with a single statistics update. The batch is only
// read, never retained or mutated, so the fan-out replay engine
// (exp.WorkloadProfile.EvaluateFanout) shares one decoded block across
// concurrent hierarchies.
func (h *Hierarchy) AccessBatch(refs []trace.Ref) {
	if len(refs) == 0 {
		return
	}
	h.refs += uint64(len(refs))
	if len(h.levels) == 0 {
		h.memBatch(refs)
		return
	}
	lv := &h.levels[0]
	c := lv.Cache
	lineSize := c.LineSize()
	writeThrough := c.Config().WriteThrough
	for i := range refs {
		addr := refs[i].Addr
		size := refs[i].Bytes()
		write := refs[i].Kind == trace.Store
		if addr&(lineSize-1)+size <= lineSize {
			// Fast path: the reference fits in one level-0 line (the
			// overwhelmingly common case — boundary streams are
			// line-sized by construction).
			h.levelAccess(0, lv, c, addr, size, write, writeThrough)
			continue
		}
		for size > 0 {
			chunk := lineSize - addr&(lineSize-1)
			if chunk > size {
				chunk = size
			}
			h.levelAccess(0, lv, c, addr, chunk, write, writeThrough)
			addr += chunk
			size -= chunk
		}
	}
}

// memBatch delivers a batch straight to the terminal of a zero-level
// hierarchy. The type switch recovers monomorphic calls for the concrete
// memories every design table uses; SimpleMemory additionally folds the
// whole batch into one statistics update.
func (h *Hierarchy) memBatch(refs []trace.Ref) {
	switch m := h.mem.(type) {
	case *SimpleMemory:
		m.accessBatch(refs)
	case *PartitionedMemory:
		m.accessBatch(refs)
	default:
		for i := range refs {
			if refs[i].Kind == trace.Store {
				h.mem.Store(refs[i].Addr, refs[i].Bytes())
			} else {
				h.mem.Load(refs[i].Addr, refs[i].Bytes())
			}
		}
	}
}

// request delivers a request of sizeBytes at addr to the given level,
// recursing downward on misses and dirty evictions. A request never crosses
// a line boundary of the level it targets (callers guarantee it for level 0;
// recursion guarantees it below because line sizes are non-decreasing and
// aligned).
func (h *Hierarchy) request(level int, addr, sizeBytes uint64, write bool) {
	if level == len(h.levels) {
		if write {
			h.mem.Store(addr, sizeBytes)
		} else {
			h.mem.Load(addr, sizeBytes)
		}
		return
	}
	lv := &h.levels[level]
	h.levelAccess(level, lv, lv.Cache, addr, sizeBytes, write, lv.Cache.Config().WriteThrough)
}

// levelAccess is the per-level body of request with the level's hot state
// (cache pointer, write-through policy) passed in, so the batch path can
// hoist those loads out of its inner loop.
func (h *Hierarchy) levelAccess(level int, lv *Level, c *cache.Cache, addr, sizeBytes uint64, write, writeThrough bool) {
	hit, victim := c.Access(addr, sizeBytes, write)
	if write && writeThrough {
		// Write-through: the store always propagates downstream, and
		// store misses did not allocate.
		h.request(level+1, addr, sizeBytes, true)
		return
	}
	if hit {
		return
	}
	// Write-allocate: fetch the full line from below. The fetch is a load
	// on the level below regardless of whether this request is a store.
	h.request(level+1, c.LineAddr(addr), c.LineSize(), false)
	if victim.Valid && victim.Dirty() {
		// Dirty eviction becomes a store to the level below, sized by
		// the sectors actually dirtied.
		h.request(level+1, victim.Addr, victim.DirtyBytes, true)
	}
	if !write && lv.PrefetchNext > 0 {
		base := c.LineAddr(addr)
		for k := 1; k <= lv.PrefetchNext; k++ {
			pa := base + uint64(k)*c.LineSize()
			present, pv := c.Prefetch(pa)
			if present {
				continue
			}
			h.request(level+1, pa, c.LineSize(), false)
			if pv.Valid && pv.Dirty() {
				h.request(level+1, pv.Addr, pv.DirtyBytes, true)
			}
		}
	}
}

// Replay streams the packed boundary stream p through the hierarchy batch
// by batch and flushes residual dirty state: for the levels below the SRAM
// prefix, exactly what a full simulation would have produced.
func (h *Hierarchy) Replay(p *trace.Packed) { p.Replay(h) }

// Flush drains dirty lines from every level downward, so that residual dirty
// state is charged as main-memory stores ("dirty cache lines eventually make
// their way to the main memory"). Call it once at the end of a workload.
func (h *Hierarchy) Flush() {
	for i := range h.levels {
		c := h.levels[i].Cache
		c.DirtyLines(func(addr, dirtyBytes uint64) {
			h.request(i+1, addr, dirtyBytes, true)
		})
	}
}

// Refs returns the total number of references accepted by Access.
func (h *Hierarchy) Refs() uint64 { return h.refs }

// Levels returns per-level snapshots ordered from the CPU outward, excluding
// the memory terminal.
func (h *Hierarchy) Levels() []LevelStats {
	out := make([]LevelStats, len(h.levels))
	for i, l := range h.levels {
		capacity := l.Cache.Config().Size
		if l.StaticCapacity != 0 {
			capacity = l.StaticCapacity
		}
		out[i] = LevelStats{
			Name:     l.Cache.Config().Name,
			Tech:     l.Tech,
			Capacity: capacity,
			Stats:    l.Cache.Stats(),
		}
	}
	return out
}

// Memory returns the terminal.
func (h *Hierarchy) Memory() Memory { return h.mem }

// Snapshot returns all level snapshots — caches followed by memory modules.
func (h *Hierarchy) Snapshot() []LevelStats {
	return append(h.Levels(), h.mem.Modules()...)
}
