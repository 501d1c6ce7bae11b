package design

import (
	"fmt"
	"sync"

	"hybridmem/internal/core"
	"hybridmem/internal/tech"
)

// ClassError reports a technology that resolved by name but belongs to the
// wrong catalog class for the axis it was requested on (e.g. asking for PCM
// as a fourth-level-cache technology).
type ClassError struct {
	// Tech is the canonical technology name.
	Tech string
	// Class is the technology's catalog class.
	Class string
	// Want is the class the design axis requires.
	Want string
}

// Error implements the error interface.
func (e *ClassError) Error() string {
	return fmt.Sprintf("design: tech %s has class %q, want %q for this axis", e.Tech, e.Class, e.Want)
}

// Registry builds design points against a technology catalog: the paper's
// design families (Section III.A) over the Table 2/3 configuration tables,
// with every technology — including the SRAM prefix and the DRAM under
// 4LC/NMM/NDM — resolved from the catalog. It is the only design-point
// builder; DefaultRegistry serves the builtin catalog. Name-taking methods
// resolve configurations and class-checked technologies; the *With methods
// take them already resolved.
type Registry struct {
	cat *tech.Catalog

	// Resolved catalog entries for the roles every design point needs.
	sram [3]tech.Tech // L1, L2, L3
	dram tech.Tech
}

// prefixTechNames are the catalog names the SRAM prefix resolves, in level
// order.
var prefixTechNames = [3]string{"SRAM-L1", "SRAM-L2", "SRAM-L3"}

// NewRegistry builds a registry over the given catalog. The catalog must
// provide the reference system's fixed roles: SRAM-L1, SRAM-L2, SRAM-L3
// (class sram) and DRAM (class dram).
func NewRegistry(cat *tech.Catalog) (*Registry, error) {
	r := &Registry{cat: cat}
	for i, name := range prefixTechNames {
		t, err := r.TechOfClass(name, tech.ClassSRAM)
		if err != nil {
			return nil, fmt.Errorf("design: catalog %s: prefix: %w", cat.Name(), err)
		}
		r.sram[i] = t
	}
	dram, err := r.TechOfClass("DRAM", tech.ClassDRAM)
	if err != nil {
		return nil, fmt.Errorf("design: catalog %s: %w", cat.Name(), err)
	}
	r.dram = dram
	return r, nil
}

var (
	defaultRegistryOnce sync.Once
	defaultRegistry     *Registry
)

// DefaultRegistry returns the registry over the builtin catalog. It panics
// if the embedded catalog is missing a fixed role, which is a build defect
// caught by any test.
func DefaultRegistry() *Registry {
	defaultRegistryOnce.Do(func() {
		r, err := NewRegistry(tech.Builtin())
		if err != nil {
			panic(err)
		}
		defaultRegistry = r
	})
	return defaultRegistry
}

// Catalog returns the catalog this registry resolves against.
func (r *Registry) Catalog() *tech.Catalog { return r.cat }

// TechOfClass resolves a technology by case-insensitive name or alias and
// checks its catalog class, failing with *ClassError on a mismatch.
func (r *Registry) TechOfClass(name, class string) (tech.Tech, error) {
	t, err := r.cat.Tech(name)
	if err != nil {
		return tech.Tech{}, err
	}
	e, _ := r.cat.Entry(t.Name)
	if e.Class != class {
		return tech.Tech{}, &ClassError{Tech: t.Name, Class: e.Class, Want: class}
	}
	return t, nil
}

// Tech resolves a technology by case-insensitive name or alias.
func (r *Registry) Tech(name string) (tech.Tech, error) { return r.cat.Tech(name) }

// DRAM returns the catalog's DRAM characterization, used for the reference
// memory, the DRAM under a fourth-level cache, the NMM DRAM cache, and the
// NDM DRAM partition.
func (r *Registry) DRAM() tech.Tech { return r.dram }

// PrefixSpecs returns the reference system's on-chip SRAM cache levels
// shared by every design, with the catalog's SRAM technologies: 32KB 8-way
// L1, 256KB 8-way L2, and the per-core 2.5MB 20-way slice of the shared
// 20MB L3, all with 64B lines and all divided by scale.
func (r *Registry) PrefixSpecs(scale uint64) []LevelSpec {
	return []LevelSpec{
		{Name: "L1", Tech: r.sram[0], Size: 32 * kb / scale, Line: CacheLine, Assoc: 8},
		{Name: "L2", Tech: r.sram[1], Size: 256 * kb / scale, Line: CacheLine, Assoc: 8},
		{Name: "L3", Tech: r.sram[2], Size: 20 * mb / SharedL3Cores / scale, Line: CacheLine, Assoc: 20},
	}
}

// BuildPrefix instantiates the shared SRAM prefix from the catalog.
func (r *Registry) BuildPrefix(scale uint64) ([]core.Level, error) {
	if err := ValidateScale(scale); err != nil {
		return nil, err
	}
	specs := r.PrefixSpecs(scale)
	levels := make([]core.Level, len(specs))
	for i, s := range specs {
		l, err := s.Build()
		if err != nil {
			return nil, fmt.Errorf("design: prefix: %w", err)
		}
		levels[i] = l
	}
	return levels, nil
}

// Reference returns the baseline back end: the catalog's DRAM, large enough
// to hold the workload footprint, directly below L3 ("3 on chip SRAM caches
// followed by a DRAM big enough to support necessary memory footprint").
func (r *Registry) Reference(footprint uint64) Backend {
	return Backend{
		Name:   "reference",
		Memory: MemorySpec{Name: "DRAM", Tech: r.dram, Capacity: footprint},
	}
}

// FourLC builds a 4-Level Cache design point by name: cfgName is a Table 2
// row and llcName must resolve to a class-llc technology.
func (r *Registry) FourLC(cfgName, llcName string, scale, footprint uint64) (Backend, error) {
	return r.Backend(Spec{Family: Family4LC, Config: cfgName, LLC: llcName}, scale, footprint)
}

// FourLCWith returns a 4-Level Cache design point: an eDRAM or HMC
// fourth-level cache (Table 2 configuration cfg, capacities divided by
// scale) in front of footprint-sized catalog DRAM.
func (r *Registry) FourLCWith(cfg EHConfig, llc tech.Tech, scale, footprint uint64) Backend {
	return Backend{
		Name:   fmt.Sprintf("4LC/%s/%s", cfg.Name, llc.Name),
		Caches: []LevelSpec{llcLevel(cfg, llc, scale)},
		Memory: MemorySpec{Name: "DRAM", Tech: r.dram, Capacity: footprint},
	}
}

// NMM builds an NVM-as-Main-Memory design point by name: cfgName is a
// Table 3 row and nvmName must resolve to a class-nvm technology (paper trio
// or a catalog extension).
func (r *Registry) NMM(cfgName, nvmName string, scale, footprint uint64) (Backend, error) {
	return r.Backend(Spec{Family: FamilyNMM, Config: cfgName, NVM: nvmName}, scale, footprint)
}

// NMMWith returns an NVM-as-Main-Memory design point: a catalog-DRAM cache
// (Table 3 configuration cfg, capacity divided by scale) in front of
// footprint-sized NVM.
func (r *Registry) NMMWith(cfg NConfig, nvm tech.Tech, scale, footprint uint64) Backend {
	return Backend{
		Name: fmt.Sprintf("NMM/%s/%s", cfg.Name, nvm.Name),
		Caches: []LevelSpec{{
			Name: "DRAM$", Tech: r.dram,
			Size: cfg.Capacity / scale, Line: cfg.PageSize, Assoc: pageCacheAssoc,
		}},
		Memory: MemorySpec{Name: "NVM(" + nvm.Name + ")", Tech: nvm, Capacity: footprint},
	}
}

// FourLCNVM builds the combined design point by name: a class-llc cache in
// front of a class-nvm main memory.
func (r *Registry) FourLCNVM(cfgName, llcName, nvmName string, scale, footprint uint64) (Backend, error) {
	return r.Backend(Spec{Family: Family4LCNVM, Config: cfgName, LLC: llcName, NVM: nvmName}, scale, footprint)
}

// FourLCNVMWith returns the combined design point: an eDRAM or HMC cache in
// front of footprint-sized NVM, with no DRAM at all.
func (r *Registry) FourLCNVMWith(cfg EHConfig, llc, nvm tech.Tech, scale, footprint uint64) Backend {
	return Backend{
		Name:   fmt.Sprintf("4LCNVM/%s/%s/%s", cfg.Name, llc.Name, nvm.Name),
		Caches: []LevelSpec{llcLevel(cfg, llc, scale)},
		Memory: MemorySpec{Name: "NVM(" + nvm.Name + ")", Tech: nvm, Capacity: footprint},
	}
}

// llcLevel is the fourth-level cache of the 4LC and 4LCNVM designs.
func llcLevel(cfg EHConfig, llc tech.Tech, scale uint64) LevelSpec {
	return LevelSpec{
		Name: llc.Name + "-L4", Tech: llc,
		Size: cfg.Capacity / scale, Line: cfg.PageSize, Assoc: pageCacheAssoc,
	}
}

// NDMWith returns an NVM+DRAM partitioned design point. nvmRanges are the
// address ranges placed on NVM (the oracle's choice); nvmBytes is the total
// footprint they cover. The catalog-DRAM partition holds the rest of the
// footprint, so its capacity — and therefore its static power — shrinks by
// exactly the bytes migrated to NVM, which is the mechanism behind the
// paper's NDM energy savings.
func (r *Registry) NDMWith(nvm tech.Tech, nvmRanges []core.AddrRange, nvmBytes, footprint uint64, label string) Backend {
	dramCap := uint64(0)
	if footprint > nvmBytes {
		dramCap = footprint - nvmBytes
	}
	return Backend{
		Name: fmt.Sprintf("NDM/%s/%s", nvm.Name, label),
		Memory: MemorySpec{
			Partitioned:  true,
			NVMRanges:    nvmRanges,
			NVMTech:      nvm,
			NVMCapacity:  nvmBytes,
			DRAMCapacity: dramCap,
			DRAMTech:     r.dram,
		},
	}
}
