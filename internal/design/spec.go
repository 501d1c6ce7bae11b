package design

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strings"

	"hybridmem/internal/tech"
)

// The design families a Spec names: the reference system, a fourth-level
// cache (Table 2) over DRAM, a DRAM cache (Table 3) over NVM, a
// fourth-level cache over NVM, and a free-form hierarchy (Spec.Custom).
const (
	FamilyReference = "reference"
	Family4LC       = "4LC"
	FamilyNMM       = "NMM"
	Family4LCNVM    = "4LCNVM"
	FamilyCustom    = "custom"
)

// GridFamily is a family built from a configuration-table row: the rows it
// accepts and the technology axes a Spec of it takes.
type GridFamily struct {
	Name    string
	Configs []string
	// LLC and NVM: the family takes a class-llc (default eDRAM) and a
	// class-nvm (default PCM) technology.
	LLC, NVM bool
}

// GridFamilies lists the paper's grid families in API order.
var GridFamilies = func() []GridFamily {
	var eh, n []string
	for _, c := range EHConfigs {
		eh = append(eh, c.Name)
	}
	for _, c := range NConfigs {
		n = append(n, c.Name)
	}
	return []GridFamily{
		{Name: Family4LC, Configs: eh, LLC: true},
		{Name: FamilyNMM, Configs: n, NVM: true},
		{Name: Family4LCNVM, Configs: eh, LLC: true, NVM: true},
	}
}()

// gridFamily finds a grid family by name.
func gridFamily(name string) (GridFamily, bool) {
	for _, f := range GridFamilies {
		if f.Name == name {
			return f, true
		}
	}
	return GridFamily{}, false
}

// Spec names a design point: a family plus its configuration-table row and
// technology choices, or a fully custom hierarchy. It is the serving API's
// design object; in JSON it may also be a "family/config[/llc][/nvm]" path
// string. Registry.Resolve validates and canonicalizes it, and
// Registry.Backend builds it.
type Spec struct {
	// Family is "reference", "4LC", "NMM", "4LCNVM", or "custom".
	Family string `json:"family"`
	// Config is the configuration-table row: EH1-EH8 for 4LC/4LCNVM
	// (Table 2), N1-N9 for NMM (Table 3).
	Config string `json:"config,omitempty"`
	// LLC is the fourth-level-cache technology for 4LC and 4LCNVM
	// (eDRAM or HMC; empty = eDRAM).
	LLC string `json:"llc,omitempty"`
	// NVM is the main-memory technology for NMM and 4LCNVM (PCM,
	// STTRAM, or FeRAM; empty = PCM).
	NVM string `json:"nvm,omitempty"`
	// Custom describes an arbitrary hierarchy (Family "custom").
	Custom *Custom `json:"custom,omitempty"`
}

// Custom is a user-defined back end: zero or more cache levels below the
// shared SRAM prefix, then a uniform main memory.
type Custom struct {
	// Name labels the design in responses (empty = "custom").
	Name string `json:"name,omitempty"`
	// Caches are instantiated top-down between L3 and memory.
	Caches []CustomLevel `json:"caches,omitempty"`
	// Memory is the terminal module.
	Memory CustomMemory `json:"memory"`
}

// CustomLevel is one cache level of a custom hierarchy.
type CustomLevel struct {
	// Name labels the level in breakdowns (empty = "Lx").
	Name string `json:"name,omitempty"`
	// Tech is a technology name or alias from the catalog.
	Tech string `json:"tech"`
	// SizeBytes and LineBytes size the cache; Assoc is its
	// associativity (0 = 16 ways, the page-cache default).
	SizeBytes uint64 `json:"size_bytes"`
	LineBytes uint64 `json:"line_bytes"`
	Assoc     int    `json:"assoc,omitempty"`
	// WriteThrough selects write-through/no-write-allocate.
	WriteThrough bool `json:"write_through,omitempty"`
	// PrefetchNext enables a next-N-line prefetcher.
	PrefetchNext int `json:"prefetch_next,omitempty"`
}

// CustomMemory is the terminal module of a custom hierarchy.
type CustomMemory struct {
	// Tech is a technology name or alias from the catalog.
	Tech string `json:"tech"`
	// CapacityBytes is the module capacity (0 = sized to the workload
	// footprint, like the reference system's DRAM).
	CapacityBytes uint64 `json:"capacity_bytes,omitempty"`
}

// UnmarshalJSON accepts either a path string ("NMM/N6/PCM") or the
// structured object form.
func (s *Spec) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var path string
		if err := json.Unmarshal(b, &path); err != nil {
			return err
		}
		return s.parsePath(path)
	}
	type raw Spec // drop methods to avoid recursion
	var r raw
	if err := json.Unmarshal(b, &r); err != nil {
		return err
	}
	*s = Spec(r)
	return nil
}

// parsePath fills s from a "family/config[/llc][/nvm]" path: a grid
// family's row, then its technology axes in order, each optional.
func (s *Spec) parsePath(path string) error {
	parts := strings.Split(path, "/")
	s.Family = parts[0]
	f, ok := gridFamily(s.Family)
	switch {
	case s.Family == FamilyReference && len(parts) == 1:
		return nil
	case !ok:
		return fmt.Errorf("design path %q: want reference or a 4LC, NMM or 4LCNVM path", path)
	}
	var axes []*string
	if f.LLC {
		axes = append(axes, &s.LLC)
	}
	if f.NVM {
		axes = append(axes, &s.NVM)
	}
	if len(parts) < 2 || len(parts) > 2+len(axes) {
		return fmt.Errorf("design path %q: want %s/<config> and up to %d technologies", path, f.Name, len(axes))
	}
	s.Config = parts[1]
	for i, p := range parts[2:] {
		*axes[i] = p
	}
	return nil
}

// Label returns the design point's short identity for logs and panic
// messages (e.g. "NMM/N6/PCM", or "custom/<name>").
func (s *Spec) Label() string {
	if s.Family == FamilyCustom && s.Custom != nil {
		return "custom/" + s.Custom.Name
	}
	parts := []string{s.Family, s.Config, s.LLC, s.NVM}
	return strings.Join(slices.DeleteFunc(parts, func(p string) bool { return p == "" }), "/")
}

// SpecErrorKind classifies a refused Spec.
type SpecErrorKind int

// The kinds of SpecError: a malformed spec (a missing or inapplicable
// field, or a custom geometry the back end cannot build), an unknown family
// or configuration-table row, and an unknown technology or one on a design
// axis its catalog class does not serve.
const (
	SpecInvalid SpecErrorKind = iota
	SpecUnknownDesign
	SpecUnknownTech
)

// SpecError is Registry.Resolve's refusal of a Spec.
type SpecError struct {
	// Field is the offending field's serving-API path, e.g. "design.nvm"
	// or "design.custom.caches[1].line_bytes".
	Field string
	Kind  SpecErrorKind
	Msg   string
}

// Error implements the error interface.
func (e *SpecError) Error() string { return e.Msg }

func specErr(kind SpecErrorKind, field, msg string) *SpecError {
	return &SpecError{Field: field, Kind: kind, Msg: msg}
}

// Resolve validates s against the registry's catalog and canonicalizes it
// in place: grid families get their default technologies (eDRAM, PCM), and
// every technology name its catalog spelling, so two specs naming one
// design point become equal; a custom design gets its default name.
// Defaults applied only when building (a custom level's associativity,
// its terminal's capacity) stay unset. A refusal is a *SpecError.
func (r *Registry) Resolve(s *Spec) error {
	switch s.Family {
	case FamilyReference:
		if s.Config != "" || s.LLC != "" || s.NVM != "" || s.Custom != nil {
			return specErr(SpecInvalid, "design", "reference takes no config, llc, nvm, or custom")
		}
		return nil
	case FamilyCustom:
		return r.resolveCustom(s)
	case "":
		return specErr(SpecInvalid, "design.family", "design family is required")
	}
	f, ok := gridFamily(s.Family)
	if !ok {
		return specErr(SpecUnknownDesign, "design.family",
			fmt.Sprintf("unknown design family %q (known: reference, 4LC, NMM, 4LCNVM, custom)", s.Family))
	}
	if !slices.Contains(f.Configs, s.Config) {
		return specErr(SpecUnknownDesign, "design.config",
			fmt.Sprintf("unknown %s config %q (known: %s)", s.Family, s.Config, strings.Join(f.Configs, ", ")))
	}
	var err error
	if f.LLC {
		if s.LLC, err = r.axisTech("design.llc", s.LLC, tech.EDRAM.Name, tech.ClassLLC); err != nil {
			return err
		}
	}
	if f.NVM {
		if s.NVM, err = r.axisTech("design.nvm", s.NVM, tech.PCM.Name, tech.ClassNVM); err != nil {
			return err
		}
	}
	switch {
	case !f.LLC && s.LLC != "":
		return specErr(SpecInvalid, "design.llc", s.Family+" has no fourth-level cache; llc does not apply")
	case !f.NVM && s.NVM != "":
		return specErr(SpecInvalid, "design.nvm", s.Family+" has a DRAM main memory; nvm does not apply")
	case s.Custom != nil:
		return specErr(SpecInvalid, "design.custom", "only custom designs take a custom spec")
	}
	return nil
}

// axisTech resolves name (empty = def) on a class axis to its canonical
// name. Unknown names and known names of another class are both
// SpecUnknownTech, listing the axis's members (extensions included).
func (r *Registry) axisTech(field, name, def, class string) (string, error) {
	if name == "" {
		name = def
	}
	t, err := r.TechOfClass(name, class)
	if err == nil {
		return t.Name, nil
	}
	known := strings.Join(tech.Names(r.cat.Class(class)), ", ")
	var ce *ClassError
	if errors.As(err, &ce) {
		return "", specErr(SpecUnknownTech, field,
			fmt.Sprintf("technology %q has catalog class %q, not %q (known: %s)", ce.Tech, ce.Class, class, known))
	}
	return "", specErr(SpecUnknownTech, field, fmt.Sprintf("unknown technology %q (known: %s)", name, known))
}

// resolveCustom validates a custom spec: every technology resolves, every
// level's geometry builds, and lines never shrink down the hierarchy.
func (r *Registry) resolveCustom(s *Spec) error {
	c := s.Custom
	if c == nil {
		return specErr(SpecInvalid, "design.custom", `family "custom" requires a custom spec`)
	}
	if s.Config != "" || s.LLC != "" || s.NVM != "" {
		return specErr(SpecInvalid, "design", "custom designs take only the custom spec")
	}
	if c.Name == "" {
		c.Name = "custom"
	}
	for i, l := range c.Caches {
		field := fmt.Sprintf("design.custom.caches[%d]", i)
		t, err := r.Tech(l.Tech)
		if err != nil {
			return specErr(SpecUnknownTech, field+".tech", err.Error())
		}
		c.Caches[i].Tech = t.Name
		if l.LineBytes == 0 || l.Assoc < 0 || l.PrefetchNext < 0 {
			return specErr(SpecInvalid, field, "line_bytes must be > 0, assoc and prefetch_next >= 0")
		}
		if err := l.level(field, t).Validate(); err != nil {
			return specErr(SpecInvalid, field, err.Error())
		}
		if i > 0 && l.LineBytes < c.Caches[i-1].LineBytes {
			return specErr(SpecInvalid, field+".line_bytes", "line_bytes must not shrink below the line of the cache above")
		}
	}
	t, err := r.Tech(c.Memory.Tech)
	if err != nil {
		return specErr(SpecUnknownTech, "design.custom.memory.tech", err.Error())
	}
	c.Memory.Tech = t.Name
	return nil
}

// level is the cache level l builds from technology t, with the default
// associativity of 16 applied.
func (l CustomLevel) level(name string, t tech.Tech) LevelSpec {
	return LevelSpec{
		Name: name, Tech: t, Size: l.SizeBytes, Line: l.LineBytes,
		Assoc: cmp.Or(l.Assoc, pageCacheAssoc), WriteThrough: l.WriteThrough, PrefetchNext: l.PrefetchNext,
	}
}

// Backend builds a spec for a workload of the given footprint: the
// reference system, a grid family at co-scaling divisor scale, or a custom
// hierarchy, whose sizes are taken as given. It applies no defaults beyond
// a custom design's build-time ones: give it a spec Resolve accepted, or
// grid names in full (an unknown row is EHByName's or NByName's error, a
// technology TechOfClass's).
func (r *Registry) Backend(s Spec, scale, footprint uint64) (Backend, error) {
	switch s.Family {
	case FamilyReference:
		return r.Reference(footprint), nil
	case FamilyNMM:
		cfg, err := NByName(s.Config)
		if err != nil {
			return Backend{}, err
		}
		nvm, err := r.TechOfClass(s.NVM, tech.ClassNVM)
		if err != nil {
			return Backend{}, err
		}
		return r.NMMWith(cfg, nvm, scale, footprint), nil
	case Family4LC, Family4LCNVM:
		cfg, err := EHByName(s.Config)
		if err != nil {
			return Backend{}, err
		}
		llc, err := r.TechOfClass(s.LLC, tech.ClassLLC)
		if err != nil {
			return Backend{}, err
		}
		if s.Family == Family4LC {
			return r.FourLCWith(cfg, llc, scale, footprint), nil
		}
		nvm, err := r.TechOfClass(s.NVM, tech.ClassNVM)
		if err != nil {
			return Backend{}, err
		}
		return r.FourLCNVMWith(cfg, llc, nvm, scale, footprint), nil
	case FamilyCustom:
		if s.Custom != nil {
			return r.custom(s.Custom, footprint)
		}
	}
	return Backend{}, fmt.Errorf("design: cannot build spec %q", s.Label())
}

// custom builds a custom hierarchy: levels named "L4", "L5", ... unless
// named, and a terminal sized to the footprint unless sized.
func (r *Registry) custom(c *Custom, footprint uint64) (Backend, error) {
	b := Backend{Name: "custom/" + c.Name}
	for i, l := range c.Caches {
		t, err := r.Tech(l.Tech)
		if err != nil {
			return Backend{}, err
		}
		name := l.Name
		if name == "" {
			name = fmt.Sprintf("L%d", i+4)
		}
		b.Caches = append(b.Caches, l.level(name, t))
	}
	t, err := r.Tech(c.Memory.Tech)
	if err != nil {
		return Backend{}, err
	}
	b.Memory = MemorySpec{Name: t.Name + "-mem", Tech: t, Capacity: cmp.Or(c.Memory.CapacityBytes, footprint)}
	return b, nil
}
