package design

import (
	"fmt"
	"strconv"

	"hybridmem/internal/core"
	"hybridmem/internal/fault"
	"hybridmem/internal/tech"
)

// Backend describes everything below the shared SRAM prefix for one design
// point: zero or more page-organized cache levels and a main memory. Build
// instantiates it; the experiment harness replays each workload's recorded
// post-L3 stream into a fresh instance per design point.
type Backend struct {
	// Name identifies the design point (e.g. "NMM/N6/PCM").
	Name string
	// Caches are the levels between L3 and main memory.
	Caches []LevelSpec
	// Memory describes the terminal.
	Memory MemorySpec
	// Fault, when non-nil, wraps the terminal in the seeded device-fault
	// injector (transient bit errors, wear-driven stuck-at cells, ECC,
	// page retirement — see package fault). Nil means a fault-free device.
	Fault *fault.Config
}

// MemorySpec describes a main-memory terminal: either a single uniform
// module, or (for NDM) a partitioned module pair routed by address range.
type MemorySpec struct {
	// Name labels the module (uniform case).
	Name string
	// Tech is the uniform module's technology.
	Tech tech.Tech
	// Capacity is the uniform module's capacity in bytes.
	Capacity uint64

	// Partitioned selects the NDM terminal; the remaining fields apply.
	Partitioned bool
	// NVMRanges are the address ranges placed on NVM (everything else
	// goes to the DRAM partition).
	NVMRanges []core.AddrRange
	// NVMTech and NVMCapacity describe the NVM side.
	NVMTech     tech.Tech
	NVMCapacity uint64
	// DRAMCapacity is the DRAM partition size.
	DRAMCapacity uint64
	// DRAMTech is the DRAM partition's technology (the registry's
	// catalog DRAM).
	DRAMTech tech.Tech

	// RowBuffer selects the open-page row-buffer timing refinement for
	// the (uniform) terminal instead of the paper's flat latency; see
	// core.RowBufferMemory. Ignored for partitioned terminals.
	RowBuffer bool
	// RowSize, Banks, and RowHitFraction configure the row-buffer model
	// (zeros select core's defaults).
	RowSize        uint64
	Banks          uint64
	RowHitFraction float64
}

// Build instantiates the backend as a bare hierarchy, the target a
// recorded boundary stream replays into.
func (b Backend) Build() (*core.Hierarchy, error) { return b.BuildHierarchy(nil) }

// ReplayKey names the back end's replay class: two back ends with the same
// key produce identical cache and terminal statistics from any boundary
// stream, because replay reads only each level's built geometry — size,
// line, associativity after the config clamp, write policy and prefetch
// depth — and a plain SimpleMemory terminal counts every access alike.
// Technologies, names and the terminal's capacity enter only later, in the
// model. ok is false for back ends whose terminal does more than count:
// fault injection, the row-buffer refinement, and partitioned (NDM)
// memories; each of those replays alone.
func (b Backend) ReplayKey() (key string, ok bool) {
	if b.Fault != nil || b.Memory.RowBuffer || b.Memory.Partitioned {
		return "", false
	}
	buf := make([]byte, 0, 32*len(b.Caches))
	for _, s := range b.Caches {
		if s.Line == 0 {
			return "", false // config would divide by zero; Build reports it
		}
		c := s.config()
		buf = strconv.AppendUint(buf, c.Size, 10)
		buf = append(buf, '/')
		buf = strconv.AppendUint(buf, c.LineSize, 10)
		buf = append(buf, '/')
		buf = strconv.AppendInt(buf, int64(c.Assoc), 10)
		buf = append(buf, '/')
		buf = strconv.AppendBool(buf, c.WriteThrough)
		buf = append(buf, '/')
		buf = strconv.AppendInt(buf, int64(s.PrefetchNext), 10)
		buf = append(buf, ';')
	}
	return string(buf), true
}

// Check returns the error Build would return for a back end with a replay
// key (see ReplayKey), without building anything: a level whose geometry
// fails validation, or levels that cannot stack (core.CheckStack). Back
// ends without a replay key can also fail in their terminal, which only
// Build reports.
func (b Backend) Check() error {
	lines := make([]uint64, len(b.Caches))
	techs := make([]tech.Tech, len(b.Caches))
	for i, s := range b.Caches {
		if err := s.Validate(); err != nil {
			return fmt.Errorf("design %s: %w", b.Name, err)
		}
		lines[i], techs[i] = s.Line, s.Tech
	}
	return core.CheckStack(lines, techs)
}

// Relabel returns the snapshot of a replay of another back end with b's
// replay key as b's own: each cache level's statistics under b's level
// Name, Tech and Capacity, and the terminal's under b's Memory labels. It
// is what Build, a replay and Snapshot would give, at the cost of a copy.
func (b Backend) Relabel(stats []core.LevelStats) []core.LevelStats {
	out := make([]core.LevelStats, len(stats))
	for i, s := range b.Caches {
		out[i] = core.LevelStats{Name: s.Name, Tech: s.Tech, Capacity: s.Size, Stats: stats[i].Stats}
	}
	m := b.Memory
	out[len(b.Caches)] = core.LevelStats{Name: m.Name, Tech: m.Tech, Capacity: m.Capacity, Stats: stats[len(b.Caches)].Stats}
	return out
}

// BuildHierarchy instantiates the backend's cache levels and terminal as a
// full hierarchy beneath the given prefix levels (typically
// Registry.BuildPrefix; nil for a bare backend). Unlike the boundary-replay
// path, the resulting hierarchy accepts the workload's raw reference stream
// end to end — the shape online observers (epoch samplers) need to see
// every level of one run at once.
func (b Backend) BuildHierarchy(prefix []core.Level) (*core.Hierarchy, error) {
	levels, mem, err := b.components(prefix)
	if err != nil {
		return nil, err
	}
	return core.NewHierarchy(levels, mem)
}

// components instantiates the backend's levels (appended to prefix) and its
// memory terminal.
func (b Backend) components(prefix []core.Level) ([]core.Level, core.Memory, error) {
	levels := make([]core.Level, 0, len(prefix)+len(b.Caches))
	levels = append(levels, prefix...)
	for _, s := range b.Caches {
		l, err := s.Build()
		if err != nil {
			return nil, nil, fmt.Errorf("design %s: %w", b.Name, err)
		}
		levels = append(levels, l)
	}
	var mem core.Memory
	switch {
	case b.Memory.Partitioned:
		pm, err := core.NewPartitionedMemory(b.Memory.NVMRanges,
			"NVM("+b.Memory.NVMTech.Name+")", b.Memory.NVMTech, b.Memory.NVMCapacity,
			"DRAM-part", b.Memory.DRAMTech, b.Memory.DRAMCapacity)
		if err != nil {
			return nil, nil, fmt.Errorf("design %s: %w", b.Name, err)
		}
		mem = pm
	case b.Memory.RowBuffer:
		rb, err := core.NewRowBufferMemory(b.Memory.Name, b.Memory.Tech, b.Memory.Capacity,
			b.Memory.RowSize, b.Memory.Banks, b.Memory.RowHitFraction)
		if err != nil {
			return nil, nil, fmt.Errorf("design %s: %w", b.Name, err)
		}
		mem = rb
	default:
		mem = core.NewSimpleMemory(b.Memory.Name, b.Memory.Tech, b.Memory.Capacity)
	}
	if b.Fault != nil {
		mem = fault.Wrap(mem, *b.Fault)
	}
	return levels, mem, nil
}

// WithFault returns a copy of the backend whose terminal is wrapped in the
// device-fault injector with the given configuration.
func (b Backend) WithFault(cfg fault.Config) Backend {
	b.Fault = &cfg
	return b
}

// WithRowBuffer returns a copy of the backend whose (uniform) terminal uses
// the open-page row-buffer timing model with default geometry.
func (b Backend) WithRowBuffer() Backend {
	b.Name += "+rowbuf"
	b.Memory.RowBuffer = true
	return b
}
