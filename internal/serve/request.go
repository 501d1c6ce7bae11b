package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"

	"hybridmem/internal/design"
	"hybridmem/internal/fault"
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
	// Analytic requests are rejected with CodeAnalyticUnsupported for
	// designs outside the analytic model, and cannot combine with fault
	// injection.
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
	// -1 = disabled; see exp.Config.Dilution). It is keyed as sent, and
	// exp.ProfileWorkloadOpts resolves it.
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

// config is the fault model f selects; nil (no injection) for a nil spec.
func (f *FaultSpec) config() *fault.Config {
	if f == nil {
		return nil
	}
	return &fault.Config{Seed: f.Seed, BitErrorRate: f.BitErrorRate, EnduranceWrites: f.EnduranceWrites, PageBytes: f.PageBytes}
}

// DesignSpec, CustomSpec, CustomLevel and CustomMemory are the API's names
// for design.Spec, the one description of a design point (Normalize
// resolves it, the evaluator builds it), and its custom-hierarchy parts.
type (
	DesignSpec   = design.Spec
	CustomSpec   = design.Custom
	CustomLevel  = design.CustomLevel
	CustomMemory = design.CustomMemory
)

// MetricNames lists the metric keys an evaluation response can carry, in
// canonical order. The fault_* counters are zero unless the request
// injected device faults.
var MetricNames = []string{
	"amat_ns", "runtime_sec", "dynamic_j", "static_j", "total_j", "edp",
	"norm_time", "norm_energy", "norm_edp",
	"fault_corrected", "fault_uncorrected", "fault_stuck_lines",
	"fault_retired_pages", "fault_remapped",
}

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
	if !slices.Contains(catalog.ExtendedNames, r.Workload) {
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
		if !slices.Contains(MetricNames, m) {
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
		if r.Design.Family == design.FamilyReference {
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
	if err := r.effReg.Resolve(&r.Design); err != nil {
		se := err.(*design.SpecError)
		return errField(specCodes[se.Kind], se.Field, se.Msg)
	}
	return nil
}

// specCodes maps each kind of design.SpecError to its API error code.
var specCodes = map[design.SpecErrorKind]string{
	design.SpecInvalid:       CodeInvalidRequest,
	design.SpecUnknownDesign: CodeUnknownDesign,
	design.SpecUnknownTech:   CodeUnknownTech,
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
