// Package design encodes the paper's design space (Section III.A): the
// reference Sandy Bridge-like system, the four hybrid hierarchy designs
// (4LC, NMM, NDM, 4LCNVM), and the configuration tables the paper sweeps
// (Table 2's EH1-EH8 eDRAM/HMC configurations and Table 3's N1-N9 NMM
// configurations).
//
// # Shared L3
//
// The paper's reference machine is a multicore Sandy Bridge Xeon whose 20MB
// L3 is shared; Tables 2 and 3 state capacities per core. A per-core slice
// of the L3 (20MB / SharedL3Cores = 2.5MB) is the capacity each workload
// instance effectively sees, and it is what makes the paper's 16MB-per-core
// eDRAM/HMC fourth-level cache worthwhile. This package models one core
// with its 2.5MB L3 share.
//
// # Co-scaling
//
// The paper runs class-D workloads with 0.8-4GB per-core footprints against
// multi-hundred-megabyte DRAM caches. To keep simulations laptop-sized, this
// package supports capacity co-scaling: a power-of-two Scale divides every
// capacity (L1, L2, the per-core L3 share, the eDRAM/HMC L4, the DRAM
// cache, the NDM DRAM partition) while workload footprints are divided by
// the same factor (see internal/workload). Line and page sizes are never
// scaled. Hit rates and miss-traffic shape are governed by
// footprint:capacity ratios and reuse distances, which co-scaling
// preserves; Scale=1 reproduces the paper's exact capacities.
package design

import (
	"fmt"

	"hybridmem/internal/cache"
	"hybridmem/internal/core"
	"hybridmem/internal/tech"
)

// CacheLine is the SRAM cache line size of the reference system (64B).
const CacheLine = 64

const (
	kb = 1 << 10
	mb = 1 << 20
)

// SharedL3Cores is the number of cores sharing the reference machine's 20MB
// L3; each simulated core sees a 2.5MB slice.
const SharedL3Cores = 8

// DefaultScale is the default capacity co-scaling divisor.
const DefaultScale = 32

// ValidateScale reports an error unless scale is a power of two in [1, 64].
// Above 64 the scaled 32KB L1 would fall below one full set (8 ways x 64B).
func ValidateScale(scale uint64) error {
	if scale == 0 || scale&(scale-1) != 0 || scale > 64 {
		return fmt.Errorf("design: scale %d must be a power of two in [1, 64]", scale)
	}
	return nil
}

// LevelSpec describes one cache level of a design.
type LevelSpec struct {
	Name  string
	Tech  tech.Tech
	Size  uint64
	Line  uint64
	Assoc int
	// WriteThrough selects write-through/no-write-allocate instead of
	// the paper's default write-back/write-allocate policy.
	WriteThrough bool
	// PrefetchNext enables a next-N-line prefetcher at this level.
	PrefetchNext int
}

// config is the cache configuration the level builds, with associativity
// clamped to the line count so heavily scaled small caches degrade to
// fully associative rather than failing validation.
func (s LevelSpec) config() cache.Config {
	lines := int(s.Size / s.Line)
	assoc := s.Assoc
	if assoc > lines {
		assoc = lines
	}
	return cache.Config{Name: s.Name, Size: s.Size, LineSize: s.Line, Assoc: assoc, WriteThrough: s.WriteThrough}
}

// Validate reports why the level's geometry cannot be built (a line size
// or set count that is not a power of two, a size that is not a whole
// number of sets), or nil. Line must be non-zero.
func (s LevelSpec) Validate() error { return s.config().Validate() }

// build instantiates the level.
func (s LevelSpec) build() (core.Level, error) {
	cfg := s.config()
	if err := cfg.Validate(); err != nil {
		return core.Level{}, err
	}
	return core.Level{Cache: cache.New(cfg), Tech: s.Tech, PrefetchNext: s.PrefetchNext}, nil
}

// PrefixSpecs returns the reference system's on-chip SRAM cache levels
// shared by every design: 32KB 8-way L1, 256KB 8-way L2, and the per-core
// 2.5MB 20-way slice of the shared 20MB L3, all with 64B lines and all
// divided by scale.
func PrefixSpecs(scale uint64) []LevelSpec {
	return []LevelSpec{
		{Name: "L1", Tech: tech.SRAML1, Size: 32 * kb / scale, Line: CacheLine, Assoc: 8},
		{Name: "L2", Tech: tech.SRAML2, Size: 256 * kb / scale, Line: CacheLine, Assoc: 8},
		{Name: "L3", Tech: tech.SRAML3, Size: 20 * mb / SharedL3Cores / scale, Line: CacheLine, Assoc: 20},
	}
}

// BuildPrefix instantiates the shared SRAM prefix.
func BuildPrefix(scale uint64) ([]core.Level, error) {
	if err := ValidateScale(scale); err != nil {
		return nil, err
	}
	specs := PrefixSpecs(scale)
	levels := make([]core.Level, len(specs))
	for i, s := range specs {
		l, err := s.build()
		if err != nil {
			return nil, fmt.Errorf("design: prefix: %w", err)
		}
		levels[i] = l
	}
	return levels, nil
}

// EHConfig is one row of Table 2: an eDRAM/HMC fourth-level-cache
// configuration (capacity per core and page size).
type EHConfig struct {
	Name     string
	Capacity uint64 // bytes, unscaled
	PageSize uint64 // bytes
}

// EHConfigs reproduces Table 2. The paper prints EH7 and EH8 as identical
// (8MB, 2048B) — an apparent typo; we keep EH7 as printed and give EH8 a
// 4MB capacity to continue the halving progression, noting the deviation in
// EXPERIMENTS.md.
var EHConfigs = []EHConfig{
	{"EH1", 16 * mb, 64},
	{"EH2", 16 * mb, 128},
	{"EH3", 16 * mb, 256},
	{"EH4", 16 * mb, 512},
	{"EH5", 16 * mb, 1024},
	{"EH6", 16 * mb, 2048},
	{"EH7", 8 * mb, 2048},
	{"EH8", 4 * mb, 2048},
}

// EHByName finds a Table 2 configuration.
func EHByName(name string) (EHConfig, error) {
	for _, c := range EHConfigs {
		if c.Name == name {
			return c, nil
		}
	}
	return EHConfig{}, fmt.Errorf("design: unknown eDRAM/HMC config %q", name)
}

// NConfig is one row of Table 3: an NMM DRAM-cache configuration.
type NConfig struct {
	Name     string
	Capacity uint64 // bytes, unscaled
	PageSize uint64 // bytes
}

// NConfigs reproduces Table 3 (page sizes 4KB down to 64B; capacities 128MB
// to 512MB).
var NConfigs = []NConfig{
	{"N1", 128 * mb, 4 * kb},
	{"N2", 256 * mb, 4 * kb},
	{"N3", 512 * mb, 4 * kb},
	{"N4", 512 * mb, 2 * kb},
	{"N5", 512 * mb, 1 * kb},
	{"N6", 512 * mb, 512},
	{"N7", 512 * mb, 256},
	{"N8", 512 * mb, 128},
	{"N9", 512 * mb, 64},
}

// NByName finds a Table 3 configuration.
func NByName(name string) (NConfig, error) {
	for _, c := range NConfigs {
		if c.Name == name {
			return c, nil
		}
	}
	return NConfig{}, fmt.Errorf("design: unknown NMM config %q", name)
}

// NDMDRAMCapacity is the DRAM partition size explored for the NDM design
// (Section IV.A: "For the NDM design we explored a DRAM of size 512MB").
const NDMDRAMCapacity = 512 * mb

// pageCacheAssoc is the associativity used for the page-organized levels
// (eDRAM/HMC L4 and the NMM DRAM cache). The paper does not state one; 16
// ways is typical for large DRAM-backed caches.
const pageCacheAssoc = 16
