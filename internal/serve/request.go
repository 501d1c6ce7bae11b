package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"

	"hybridmem/internal/design"
	"hybridmem/internal/reuse"
	"hybridmem/internal/tech"
	"hybridmem/internal/workload/catalog"
)

// EvalRequest is the body of POST /v1/evaluate: one design point to
// evaluate against one workload. Zero-valued knobs resolve to the same
// defaults the CLI tools use (design.DefaultScale, co-scaled workloads,
// default dilution), so a minimal request needs only a design and a
// workload.
type EvalRequest struct {
	// Design selects the hierarchy below the shared SRAM prefix. It
	// accepts either a path string ("4LC/EH4", "NMM/N6/PCM",
	// "4LCNVM/EH4/eDRAM/PCM", "reference") or a structured object; see
	// DesignSpec.
	Design DesignSpec `json:"design"`
	// Workload names a catalog workload (Table 4 names plus LU and
	// STREAM).
	Workload string `json:"workload"`
	// Fidelity selects the evaluation path: "exact" (the default)
	// replays the recorded boundary stream through the design; "analytic"
	// answers from the profile's reuse sketch in microseconds (within the
	// accuracy envelope internal/exp's goldens pin) without any replay.
	// Analytic requests are rejected with CodeNoSketch when the profile
	// carries no sketch, with CodeAnalyticUnsupported for designs outside
	// the analytic model, and cannot combine with fault injection.
	Fidelity string `json:"fidelity,omitempty"`
	// Scale is the design-space capacity co-scaling divisor (power of
	// two in [1,64]; 0 = design.DefaultScale).
	Scale uint64 `json:"scale,omitempty"`
	// WorkloadScale divides workload footprints (0 = Scale, the paper's
	// co-scaling; larger values shrink the simulation for smoke tests).
	WorkloadScale uint64 `json:"workload_scale,omitempty"`
	// Iters overrides workload iteration counts (0 = workload default).
	Iters int `json:"iters,omitempty"`
	// Dilution is the synthetic L1-hit dilution factor (0 = default,
	// -1 = disabled; see exp.Config.Dilution).
	Dilution int `json:"dilution,omitempty"`
	// Metrics filters which metrics appear in the response (empty =
	// all). Metric names: see MetricNames.
	Metrics []string `json:"metrics,omitempty"`
	// Fault injects the deterministic NVM device-fault model into the
	// design's terminal memory (nil = fault-free). Not valid for the
	// reference design, which is answered without a replay.
	Fault *FaultSpec `json:"fault,omitempty"`
	// CatalogVersion, when set, pins the request to a specific technology
	// catalog: the request is rejected (CodeCatalogMismatch) unless it
	// equals the serving catalog's version. Clients that bake expectations
	// about Table 1 values into their analysis set this to fail fast when
	// the server is launched with different numbers.
	CatalogVersion string `json:"catalog_version,omitempty"`
	// TechOverrides replaces or adds technology characterizations for this
	// request only, keyed by technology name. Each entry is a complete
	// characterization (not a patch). Overridden technologies are usable
	// anywhere a catalog name is: design axes, custom hierarchies, and the
	// implicit DRAM. Overrides change the effective catalog hash and
	// therefore the result-cache key.
	TechOverrides map[string]TechSpec `json:"tech_overrides,omitempty"`

	// effCatalog is the effective catalog the request resolves against:
	// the serving catalog plus TechOverrides. Set by NormalizeWith.
	effCatalog *tech.Catalog
	// effReg builds design points from effCatalog. Set by NormalizeWith.
	effReg *design.Registry
	// effHash is effCatalog's content hash, folded into Key. Set by
	// NormalizeWith.
	effHash string
}

// TechSpec is a complete technology characterization in catalog-file field
// names (see FORMATS.md). Used by EvalRequest.TechOverrides.
type TechSpec struct {
	// ReadNS and WriteNS are access latencies in nanoseconds (> 0).
	ReadNS  float64 `json:"read_ns"`
	WriteNS float64 `json:"write_ns"`
	// ReadPJPerBit and WritePJPerBit are dynamic energies (>= 0).
	ReadPJPerBit  float64 `json:"read_pj_per_bit"`
	WritePJPerBit float64 `json:"write_pj_per_bit"`
	// StaticWPerGB and StaticWFixed are static-power coefficients (>= 0).
	StaticWPerGB float64 `json:"static_w_per_gb,omitempty"`
	StaticWFixed float64 `json:"static_w_fixed,omitempty"`
	// NonVolatile marks a technology that retains data unpowered.
	NonVolatile bool `json:"non_volatile,omitempty"`
	// Class is the catalog class (sram, dram, llc, nvm). Required for
	// names new to the catalog; defaults to the overridden entry's class
	// otherwise.
	Class string `json:"class,omitempty"`
}

// FaultSpec parameterizes device-fault injection for one evaluation; see
// fault.Config for the model. The same seed over the same request always
// produces identical fault metrics.
type FaultSpec struct {
	// Seed drives every probabilistic fault decision.
	Seed uint64 `json:"seed"`
	// BitErrorRate is the transient bit-error probability per bit
	// accessed, in [0, 1).
	BitErrorRate float64 `json:"bit_error_rate,omitempty"`
	// EnduranceWrites is the mean per-line write endurance before a
	// permanent stuck-at fault (0 disables wear faults).
	EnduranceWrites uint64 `json:"endurance_writes,omitempty"`
	// PageBytes is the page-retirement granularity (0 = 4096; must be a
	// power of two >= 64 otherwise).
	PageBytes uint64 `json:"page_bytes,omitempty"`
}

// DesignSpec names a design point: a family plus its configuration-table
// row and technology choices, or a fully custom hierarchy. In JSON it may
// be given as a "family/config[/llc][/nvm]" path string instead of an
// object.
type DesignSpec struct {
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
	Custom *CustomSpec `json:"custom,omitempty"`
}

// CustomSpec is a user-defined back end: zero or more cache levels below
// the shared SRAM prefix, then a uniform main memory.
type CustomSpec struct {
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
	// Tech is a technology name from Table 1 (see tech.Names).
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
	// Tech is a technology name from Table 1.
	Tech string `json:"tech"`
	// CapacityBytes is the module capacity (0 = sized to the workload
	// footprint, like the reference system's DRAM).
	CapacityBytes uint64 `json:"capacity_bytes,omitempty"`
}

// UnmarshalJSON accepts either a path string ("NMM/N6/PCM") or the
// structured object form.
func (d *DesignSpec) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		return d.parsePath(s)
	}
	type raw DesignSpec // drop methods to avoid recursion
	var r raw
	if err := json.Unmarshal(b, &r); err != nil {
		return err
	}
	*d = DesignSpec(r)
	return nil
}

// parsePath fills d from a "family/config[/llc][/nvm]" path.
func (d *DesignSpec) parsePath(s string) error {
	parts := strings.Split(s, "/")
	d.Family = parts[0]
	switch d.Family {
	case "reference":
		if len(parts) > 1 {
			return fmt.Errorf("design path %q: reference takes no segments", s)
		}
	case "4LC":
		if len(parts) < 2 || len(parts) > 3 {
			return fmt.Errorf("design path %q: want 4LC/<EHn>[/<llc>]", s)
		}
		d.Config = parts[1]
		if len(parts) == 3 {
			d.LLC = parts[2]
		}
	case "NMM":
		if len(parts) < 2 || len(parts) > 3 {
			return fmt.Errorf("design path %q: want NMM/<Nn>[/<nvm>]", s)
		}
		d.Config = parts[1]
		if len(parts) == 3 {
			d.NVM = parts[2]
		}
	case "4LCNVM":
		if len(parts) < 2 || len(parts) > 4 {
			return fmt.Errorf("design path %q: want 4LCNVM/<EHn>[/<llc>[/<nvm>]]", s)
		}
		d.Config = parts[1]
		if len(parts) >= 3 {
			d.LLC = parts[2]
		}
		if len(parts) == 4 {
			d.NVM = parts[3]
		}
	default:
		return fmt.Errorf("design path %q: unknown family %q", s, d.Family)
	}
	return nil
}

// MetricNames lists the metric keys an evaluation response can carry, in
// canonical order. The fault_* counters are zero unless the request
// injected device faults.
var MetricNames = []string{
	"amat_ns", "runtime_sec", "dynamic_j", "static_j", "total_j", "edp",
	"norm_time", "norm_energy", "norm_edp",
	"fault_corrected", "fault_uncorrected", "fault_stuck_lines",
	"fault_retired_pages", "fault_remapped",
}

var metricSet = func() map[string]bool {
	m := make(map[string]bool, len(MetricNames))
	for _, n := range MetricNames {
		m[n] = true
	}
	return m
}()

var workloadSet = func() map[string]bool {
	m := map[string]bool{}
	for _, n := range catalog.ExtendedNames {
		m[n] = true
	}
	return m
}()

// Normalize is NormalizeWith against the builtin catalog.
func (r *EvalRequest) Normalize() *APIError {
	return r.NormalizeWith(nil)
}

// NormalizeWith validates the request in place against the given serving
// catalog (nil = builtin), resolves defaulted fields to their concrete
// values, and returns the first validation failure as an *APIError (nil on
// success). After it returns nil the request is fully canonical — two
// requests asking the same question marshal to identical bytes, and the
// request carries its effective catalog (serving catalog plus any
// TechOverrides) and that catalog's content hash, which Key folds into the
// cache key — so a catalog edit can never serve a stale cached result. The
// HTTP handler normalizes every request; in-process callers (cmd/memsimd's
// warmup, tests) must do it themselves before Evaluator.Evaluate.
func (r *EvalRequest) NormalizeWith(cat *tech.Catalog) *APIError {
	if cat == nil {
		cat = tech.Builtin()
	}
	if r.CatalogVersion != "" && r.CatalogVersion != cat.Version() {
		return errField(CodeCatalogMismatch, "catalog_version",
			fmt.Sprintf("request pins catalog version %q; server is serving %q (%s)",
				r.CatalogVersion, cat.Version(), cat.Name()))
	}
	eff, apiErr := applyOverrides(cat, r.TechOverrides)
	if apiErr != nil {
		return apiErr
	}
	reg, err := design.NewRegistry(eff)
	if err != nil {
		// An override broke a fixed role (e.g. reclassed DRAM): the
		// request, not the server, is at fault.
		return errField(CodeInvalidRequest, "tech_overrides", err.Error())
	}
	r.effCatalog, r.effReg, r.effHash = eff, reg, eff.Hash()
	if r.Workload == "" {
		return errField(CodeInvalidRequest, "workload", "workload is required")
	}
	if !workloadSet[r.Workload] {
		return errField(CodeUnknownWorkload, "workload",
			fmt.Sprintf("unknown workload %q (known: %s)", r.Workload, strings.Join(catalog.ExtendedNames, ", ")))
	}
	if r.Scale == 0 {
		r.Scale = design.DefaultScale
	}
	if err := design.ValidateScale(r.Scale); err != nil {
		return errField(CodeInvalidRequest, "scale", err.Error())
	}
	if r.WorkloadScale == 0 {
		r.WorkloadScale = r.Scale
	}
	if r.WorkloadScale&(r.WorkloadScale-1) != 0 {
		return errField(CodeInvalidRequest, "workload_scale",
			fmt.Sprintf("workload_scale %d must be a power of two", r.WorkloadScale))
	}
	if r.Iters < 0 {
		return errField(CodeInvalidRequest, "iters", "iters must be >= 0")
	}
	if r.Dilution < -1 {
		return errField(CodeInvalidRequest, "dilution", "dilution must be >= -1")
	}
	for _, m := range r.Metrics {
		if !metricSet[m] {
			return errField(CodeInvalidRequest, "metrics",
				fmt.Sprintf("unknown metric %q (known: %s)", m, strings.Join(MetricNames, ", ")))
		}
	}
	switch r.Fidelity {
	case "":
		r.Fidelity = FidelityExact
	case FidelityExact, FidelityAnalytic:
	default:
		return errField(CodeInvalidRequest, "fidelity",
			fmt.Sprintf("unknown fidelity %q (known: %s, %s)", r.Fidelity, FidelityExact, FidelityAnalytic))
	}
	if r.Fidelity == FidelityAnalytic && r.Fault != nil {
		return errField(CodeInvalidRequest, "fault",
			"fault injection needs an exact replay; it does not apply at analytic fidelity")
	}
	if f := r.Fault; f != nil {
		if r.Design.Family == "reference" {
			return errField(CodeInvalidRequest, "fault",
				"the reference design is answered without a replay; fault injection does not apply")
		}
		if f.BitErrorRate < 0 || f.BitErrorRate >= 1 {
			return errField(CodeInvalidRequest, "fault.bit_error_rate",
				"bit_error_rate must be in [0, 1)")
		}
		if p := f.PageBytes; p != 0 && (p < 64 || p&(p-1) != 0) {
			return errField(CodeInvalidRequest, "fault.page_bytes",
				"page_bytes must be 0 (default) or a power of two >= 64")
		}
	}
	return r.Design.normalize(r.effCatalog)
}

// applyOverrides folds TechOverrides into the serving catalog, producing
// the request's effective catalog. Entries are applied in sorted name order
// so the derived catalog (and its hash) is deterministic.
func applyOverrides(cat *tech.Catalog, overrides map[string]TechSpec) (*tech.Catalog, *APIError) {
	if len(overrides) == 0 {
		return cat, nil
	}
	names := make([]string, 0, len(overrides))
	for name := range overrides {
		names = append(names, name)
	}
	sort.Strings(names)
	entries := make([]tech.Entry, 0, len(names))
	for _, name := range names {
		s := overrides[name]
		field := "tech_overrides." + name
		if name == "" {
			return nil, errField(CodeInvalidRequest, "tech_overrides", "technology name must not be empty")
		}
		class := s.Class
		if class == "" {
			e, ok := cat.Entry(name)
			if !ok {
				return nil, errField(CodeInvalidRequest, field+".class",
					fmt.Sprintf("%q is new to the catalog; class is required (sram, dram, llc, nvm)", name))
			}
			class = e.Class
		}
		t, err := tech.NewCustom(tech.Tech{
			Name:          name,
			ReadNS:        s.ReadNS,
			WriteNS:       s.WriteNS,
			ReadPJPerBit:  s.ReadPJPerBit,
			WritePJPerBit: s.WritePJPerBit,
			StaticWPerGB:  s.StaticWPerGB,
			StaticWFixed:  s.StaticWFixed,
			NonVolatile:   s.NonVolatile,
		})
		if err != nil {
			var ve *tech.ValueError
			if errors.As(err, &ve) {
				return nil, errField(CodeInvalidRequest, field+"."+ve.Field, ve.Error())
			}
			return nil, errField(CodeInvalidRequest, field, err.Error())
		}
		entries = append(entries, tech.Entry{Tech: t, Class: class, Extension: true, Source: "request tech_overrides"})
	}
	eff, err := cat.WithEntries(entries...)
	if err != nil {
		return nil, errField(CodeInvalidRequest, "tech_overrides", err.Error())
	}
	return eff, nil
}

// normalize validates the design spec against the effective catalog and
// resolves defaulted and aliased technology names to their canonical
// spellings (which is what makes the cache key spelling-independent).
func (d *DesignSpec) normalize(cat *tech.Catalog) *APIError {
	if cat == nil {
		cat = tech.Builtin()
	}
	// checkTech resolves name on a class axis, returning the canonical
	// name. Unknown names and known-but-wrong-class names both come back
	// as CodeUnknownTech listing the axis's legal values (class members,
	// extensions included).
	checkTech := func(field, name, class string) (string, *APIError) {
		known := func() string {
			var names []string
			for _, t := range cat.Class(class) {
				names = append(names, t.Name)
			}
			return strings.Join(names, ", ")
		}
		t, err := cat.Tech(name)
		if err != nil {
			return "", errField(CodeUnknownTech, field,
				fmt.Sprintf("unknown technology %q (known: %s)", name, known()))
		}
		if e, _ := cat.Entry(t.Name); e.Class != class {
			return "", errField(CodeUnknownTech, field,
				fmt.Sprintf("technology %q has catalog class %q, not %q (known: %s)", t.Name, e.Class, class, known()))
		}
		return t.Name, nil
	}
	switch d.Family {
	case "reference":
		if d.Config != "" || d.LLC != "" || d.NVM != "" || d.Custom != nil {
			return errField(CodeInvalidRequest, "design", "reference takes no config, llc, nvm, or custom")
		}
	case "4LC":
		if _, err := design.EHByName(d.Config); err != nil {
			return errField(CodeUnknownDesign, "design.config", err.Error())
		}
		if d.LLC == "" {
			d.LLC = tech.EDRAM.Name
		}
		name, apiErr := checkTech("design.llc", d.LLC, tech.ClassLLC)
		if apiErr != nil {
			return apiErr
		}
		d.LLC = name
		if d.NVM != "" {
			return errField(CodeInvalidRequest, "design.nvm", "4LC has a DRAM main memory; nvm does not apply")
		}
	case "NMM":
		if _, err := design.NByName(d.Config); err != nil {
			return errField(CodeUnknownDesign, "design.config", err.Error())
		}
		if d.NVM == "" {
			d.NVM = tech.PCM.Name
		}
		name, apiErr := checkTech("design.nvm", d.NVM, tech.ClassNVM)
		if apiErr != nil {
			return apiErr
		}
		d.NVM = name
		if d.LLC != "" {
			return errField(CodeInvalidRequest, "design.llc", "NMM has no fourth-level cache; llc does not apply")
		}
	case "4LCNVM":
		if _, err := design.EHByName(d.Config); err != nil {
			return errField(CodeUnknownDesign, "design.config", err.Error())
		}
		if d.LLC == "" {
			d.LLC = tech.EDRAM.Name
		}
		name, apiErr := checkTech("design.llc", d.LLC, tech.ClassLLC)
		if apiErr != nil {
			return apiErr
		}
		d.LLC = name
		if d.NVM == "" {
			d.NVM = tech.PCM.Name
		}
		name, apiErr = checkTech("design.nvm", d.NVM, tech.ClassNVM)
		if apiErr != nil {
			return apiErr
		}
		d.NVM = name
	case "custom":
		if d.Custom == nil {
			return errField(CodeInvalidRequest, "design.custom", `family "custom" requires a custom spec`)
		}
		if d.Config != "" || d.LLC != "" || d.NVM != "" {
			return errField(CodeInvalidRequest, "design", "custom designs take only the custom spec")
		}
		if d.Custom.Name == "" {
			d.Custom.Name = "custom"
		}
		for i, l := range d.Custom.Caches {
			field := fmt.Sprintf("design.custom.caches[%d]", i)
			ct, err := cat.Tech(l.Tech)
			if err != nil {
				return errField(CodeUnknownTech, field+".tech", err.Error())
			}
			d.Custom.Caches[i].Tech = ct.Name
			if l.SizeBytes == 0 || l.LineBytes == 0 {
				return errField(CodeInvalidRequest, field, "size_bytes and line_bytes must be > 0")
			}
			if l.SizeBytes%l.LineBytes != 0 {
				return errField(CodeInvalidRequest, field, "size_bytes must be a multiple of line_bytes")
			}
			if l.Assoc < 0 || l.PrefetchNext < 0 {
				return errField(CodeInvalidRequest, field, "assoc and prefetch_next must be >= 0")
			}
			// Reject every geometry the back end cannot build here, as a
			// typed 400, rather than as an internal error after profiling.
			if err := l.levelSpec(field).Validate(); err != nil {
				return errField(CodeInvalidRequest, field, err.Error())
			}
			if i > 0 && l.LineBytes < d.Custom.Caches[i-1].LineBytes {
				return errField(CodeInvalidRequest, field+".line_bytes",
					"line_bytes must not shrink below the line of the cache above")
			}
		}
		mt, err := cat.Tech(d.Custom.Memory.Tech)
		if err != nil {
			return errField(CodeUnknownTech, "design.custom.memory.tech", err.Error())
		}
		d.Custom.Memory.Tech = mt.Name
	case "":
		return errField(CodeInvalidRequest, "design.family", "design family is required")
	default:
		return errField(CodeUnknownDesign, "design.family",
			fmt.Sprintf("unknown design family %q (known: reference, 4LC, NMM, 4LCNVM, custom)", d.Family))
	}
	return nil
}

// Fidelity values EvalRequest.Fidelity accepts after normalization.
const (
	// FidelityExact replays the boundary stream (the default).
	FidelityExact = "exact"
	// FidelityAnalytic answers from the profile's reuse sketch.
	FidelityAnalytic = "analytic"
)

// cacheKeyRequest is the canonical tuple hashed into the result-cache key.
// Metrics are deliberately excluded: the underlying evaluation is identical
// regardless of which metrics the caller asked to see.
type cacheKeyRequest struct {
	Design        DesignSpec `json:"design"`
	Workload      string     `json:"workload"`
	Scale         uint64     `json:"scale"`
	WorkloadScale uint64     `json:"workload_scale"`
	Iters         int        `json:"iters"`
	Dilution      int        `json:"dilution"`
	Fault         *FaultSpec `json:"fault"`
	// Fidelity is empty for exact requests (keeping their key material —
	// and therefore persisted results — byte-identical to pre-fidelity
	// servers) and "analytic" otherwise, so the two paths' answers for
	// one design never share a cache entry.
	Fidelity string `json:"fidelity,omitempty"`
	// SketchSchema is reuse.SketchVersion for analytic requests (zero,
	// omitted, for exact): a sketch-schema change re-keys every analytic
	// result, the same staleness guard CatalogHash provides for
	// technology edits. The sketch content itself needs no key component
	// — it is a pure function of the profile tuple above.
	SketchSchema int `json:"sketch_schema,omitempty"`
	// CatalogHash is the effective catalog's content hash. Because
	// TechOverrides fold into the effective catalog before hashing, this
	// one field covers both a server launched with an edited catalog file
	// and per-request overrides: any technology-parameter change anywhere
	// produces a different key, so a cached or persisted result can never
	// be served for different numbers.
	CatalogHash string `json:"catalog_hash"`
}

// Key returns the canonical cache key of a normalized request: the
// SHA-256 hex digest of its defaults-resolved (config, workload,
// parameters, catalog) tuple. Requests that resolve to the same evaluation
// hash to the same key regardless of spelling (path vs. object design,
// omitted vs. explicit defaults, aliased vs. canonical tech names).
func (r *EvalRequest) Key() string {
	fidelity, schema := "", 0
	if r.Fidelity == FidelityAnalytic {
		fidelity, schema = FidelityAnalytic, reuse.SketchVersion
	}
	b, err := json.Marshal(cacheKeyRequest{
		Design:        r.Design,
		Workload:      r.Workload,
		Scale:         r.Scale,
		WorkloadScale: r.WorkloadScale,
		Iters:         r.Iters,
		Dilution:      r.Dilution,
		Fault:         r.Fault,
		Fidelity:      fidelity,
		SketchSchema:  schema,
		CatalogHash:   r.CatalogHash(),
	})
	if err != nil {
		// cacheKeyRequest contains only marshalable fields; unreachable.
		panic(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// EffectiveCatalog returns the catalog the normalized request resolves
// against: the serving catalog plus any TechOverrides (builtin for a
// request that was never normalized).
func (r *EvalRequest) EffectiveCatalog() *tech.Catalog {
	if r.effCatalog == nil {
		return tech.Builtin()
	}
	return r.effCatalog
}

// CatalogHash returns the effective catalog's content hash.
func (r *EvalRequest) CatalogHash() string {
	if r.effHash == "" {
		return tech.Builtin().Hash()
	}
	return r.effHash
}

// registry returns the design registry over the effective catalog.
func (r *EvalRequest) registry() *design.Registry {
	if r.effReg == nil {
		return design.DefaultRegistry()
	}
	return r.effReg
}

// levelSpec is the cache level a custom spec builds (technology left for
// the caller to resolve), with the default associativity of 16 applied.
func (l CustomLevel) levelSpec(name string) design.LevelSpec {
	assoc := l.Assoc
	if assoc == 0 {
		assoc = 16
	}
	return design.LevelSpec{
		Name: name, Size: l.SizeBytes, Line: l.LineBytes,
		Assoc: assoc, WriteThrough: l.WriteThrough, PrefetchNext: l.PrefetchNext,
	}
}

// label returns the design point's short identity for logs and panic
// messages (e.g. "NMM/N6/PCM", or "custom/<name>").
func (d *DesignSpec) label() string {
	if d.Family == "custom" && d.Custom != nil {
		return "custom/" + d.Custom.Name
	}
	parts := []string{d.Family}
	for _, p := range []string{d.Config, d.LLC, d.NVM} {
		if p != "" {
			parts = append(parts, p)
		}
	}
	return strings.Join(parts, "/")
}

// backend resolves the normalized request into a buildable design.Backend
// via the effective catalog's registry. footprint is the profiled
// workload's footprint (custom memories with zero capacity and all family
// designs size their terminal from it). Reference designs return ok=false:
// they are answered from the profile's cached reference evaluation without
// a replay.
func (r *EvalRequest) backend(footprint uint64) (b design.Backend, ok bool, err error) {
	d, reg, scale := &r.Design, r.registry(), r.Scale
	switch d.Family {
	case "reference":
		return design.Backend{}, false, nil
	case "4LC":
		b, err := reg.FourLC(d.Config, d.LLC, scale, footprint)
		return b, true, err
	case "NMM":
		b, err := reg.NMM(d.Config, d.NVM, scale, footprint)
		return b, true, err
	case "4LCNVM":
		b, err := reg.FourLCNVM(d.Config, d.LLC, d.NVM, scale, footprint)
		return b, true, err
	case "custom":
		b := design.Backend{Name: "custom/" + d.Custom.Name}
		for i, l := range d.Custom.Caches {
			lt, err := reg.Tech(l.Tech)
			if err != nil {
				return design.Backend{}, false, err
			}
			name := l.Name
			if name == "" {
				name = fmt.Sprintf("L%d", i+4)
			}
			spec := l.levelSpec(name)
			spec.Tech = lt
			b.Caches = append(b.Caches, spec)
		}
		mt, err := reg.Tech(d.Custom.Memory.Tech)
		if err != nil {
			return design.Backend{}, false, err
		}
		capacity := d.Custom.Memory.CapacityBytes
		if capacity == 0 {
			capacity = footprint
		}
		b.Memory = design.MemorySpec{Name: mt.Name + "-mem", Tech: mt, Capacity: capacity}
		return b, true, nil
	default:
		return design.Backend{}, false, fmt.Errorf("serve: unknown design family %q", d.Family)
	}
}
