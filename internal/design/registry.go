package design

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
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

// Registry builds design points by name against a technology catalog. It is
// the data-driven counterpart of the package-level constructors: the same
// Table 2/3 configuration tables, but with every technology — including the
// SRAM prefix and the implicit DRAM under 4LC/NMM/NDM — resolved from the
// catalog instead of the hardcoded package variables. For the builtin
// catalog the two paths produce identical Backend structs (pinned by the
// golden-equivalence test in internal/exp).
type Registry struct {
	cat *tech.Catalog

	// ehConfigs and nConfigs are the Table 2/3 rows this registry serves.
	ehConfigs []EHConfig
	nConfigs  []NConfig

	// Resolved catalog entries for the roles every design point needs.
	sram [3]tech.Tech // L1, L2, L3
	dram tech.Tech

	hash string
}

// prefixTechNames are the catalog names the SRAM prefix resolves, in level
// order.
var prefixTechNames = [3]string{"SRAM-L1", "SRAM-L2", "SRAM-L3"}

// NewRegistry builds a registry over the given catalog. The catalog must
// provide the reference system's fixed roles: SRAM-L1, SRAM-L2, SRAM-L3
// (class sram) and DRAM (class dram).
func NewRegistry(cat *tech.Catalog) (*Registry, error) {
	r := &Registry{
		cat:       cat,
		ehConfigs: EHConfigs,
		nConfigs:  NConfigs,
	}
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
	r.hash = r.computeHash()
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

// Hash returns a hex digest covering the catalog contents and the design
// tables. Any change to a technology parameter, a Table 2/3 row, or the NDM
// DRAM capacity changes the hash, which is what lets result caches key on
// the full design space rather than trusting names to stay meaningful.
func (r *Registry) Hash() string { return r.hash }

func (r *Registry) computeHash() string {
	h := sha256.New()
	w := func(parts ...string) {
		for _, p := range parts {
			h.Write([]byte(p))
			h.Write([]byte{0})
		}
	}
	w("design-registry/1", r.cat.Hash())
	for _, c := range r.ehConfigs {
		w("eh", c.Name, strconv.FormatUint(c.Capacity, 10), strconv.FormatUint(c.PageSize, 10))
	}
	for _, c := range r.nConfigs {
		w("n", c.Name, strconv.FormatUint(c.Capacity, 10), strconv.FormatUint(c.PageSize, 10))
	}
	w("ndm-dram", strconv.FormatUint(uint64(NDMDRAMCapacity), 10))
	return hex.EncodeToString(h.Sum(nil))
}

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

// EHConfigs returns the Table 2 rows this registry serves.
func (r *Registry) EHConfigs() []EHConfig { return r.ehConfigs }

// NConfigs returns the Table 3 rows this registry serves.
func (r *Registry) NConfigs() []NConfig { return r.nConfigs }

// EHByName finds a Table 2 configuration in the registry.
func (r *Registry) EHByName(name string) (EHConfig, error) {
	for _, c := range r.ehConfigs {
		if c.Name == name {
			return c, nil
		}
	}
	return EHConfig{}, fmt.Errorf("design: unknown eDRAM/HMC config %q", name)
}

// NByName finds a Table 3 configuration in the registry.
func (r *Registry) NByName(name string) (NConfig, error) {
	for _, c := range r.nConfigs {
		if c.Name == name {
			return c, nil
		}
	}
	return NConfig{}, fmt.Errorf("design: unknown NMM config %q", name)
}

// PrefixSpecs returns the shared SRAM prefix with technologies resolved from
// the registry's catalog (same geometry as the package-level PrefixSpecs).
func (r *Registry) PrefixSpecs(scale uint64) []LevelSpec {
	specs := PrefixSpecs(scale)
	for i := range specs {
		specs[i].Tech = r.sram[i]
	}
	return specs
}

// BuildPrefix instantiates the shared SRAM prefix from the catalog.
func (r *Registry) BuildPrefix(scale uint64) ([]core.Level, error) {
	if err := ValidateScale(scale); err != nil {
		return nil, err
	}
	specs := r.PrefixSpecs(scale)
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

// Reference returns the baseline back end with the catalog's DRAM.
func (r *Registry) Reference(footprint uint64) Backend {
	return referenceWith(r.dram, footprint)
}

// FourLC builds a 4-Level Cache design point by name: cfgName is a Table 2
// row and llcName must resolve to a class-llc technology.
func (r *Registry) FourLC(cfgName, llcName string, scale, footprint uint64) (Backend, error) {
	cfg, err := r.EHByName(cfgName)
	if err != nil {
		return Backend{}, err
	}
	llc, err := r.TechOfClass(llcName, tech.ClassLLC)
	if err != nil {
		return Backend{}, err
	}
	return fourLCWith(cfg, llc, r.dram, scale, footprint), nil
}

// FourLCWith is FourLC for callers that already hold a resolved
// configuration and cache technology (the experiment sweeps), still using
// the registry's catalog DRAM underneath.
func (r *Registry) FourLCWith(cfg EHConfig, llc tech.Tech, scale, footprint uint64) Backend {
	return fourLCWith(cfg, llc, r.dram, scale, footprint)
}

// NMM builds an NVM-as-Main-Memory design point by name: cfgName is a
// Table 3 row and nvmName must resolve to a class-nvm technology (paper trio
// or a catalog extension).
func (r *Registry) NMM(cfgName, nvmName string, scale, footprint uint64) (Backend, error) {
	cfg, err := r.NByName(cfgName)
	if err != nil {
		return Backend{}, err
	}
	nvm, err := r.TechOfClass(nvmName, tech.ClassNVM)
	if err != nil {
		return Backend{}, err
	}
	return nmmWith(cfg, nvm, r.dram, scale, footprint), nil
}

// NMMWith is NMM for callers that already hold a resolved configuration and
// main-memory technology, with the registry's catalog DRAM as the cache.
func (r *Registry) NMMWith(cfg NConfig, nvm tech.Tech, scale, footprint uint64) Backend {
	return nmmWith(cfg, nvm, r.dram, scale, footprint)
}

// FourLCNVM builds the combined design point by name: a class-llc cache in
// front of a class-nvm main memory.
func (r *Registry) FourLCNVM(cfgName, llcName, nvmName string, scale, footprint uint64) (Backend, error) {
	cfg, err := r.EHByName(cfgName)
	if err != nil {
		return Backend{}, err
	}
	llc, err := r.TechOfClass(llcName, tech.ClassLLC)
	if err != nil {
		return Backend{}, err
	}
	nvm, err := r.TechOfClass(nvmName, tech.ClassNVM)
	if err != nil {
		return Backend{}, err
	}
	return FourLCNVM(cfg, llc, nvm, scale, footprint), nil
}

// NDM builds an NVM+DRAM partitioned design point by name, with the DRAM
// partition characterized by the catalog's DRAM entry.
func (r *Registry) NDM(nvmName string, nvmRanges []core.AddrRange, nvmBytes, footprint uint64, label string) (Backend, error) {
	nvm, err := r.TechOfClass(nvmName, tech.ClassNVM)
	if err != nil {
		return Backend{}, err
	}
	b := NDM(nvm, nvmRanges, nvmBytes, footprint, label)
	b.Memory.DRAMTech = r.dram
	return b, nil
}
