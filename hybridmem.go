// Package hybridmem is a simulation framework for evaluating emerging
// memory technologies in hybrid memory hierarchies, reproducing "Evaluation
// of emerging memory technologies for HPC, data intensive applications"
// (Suresh, Cicotti, Carrington; CLUSTER 2014).
//
// The framework couples:
//
//   - instrumented HPC/data-intensive workload kernels (NPB BT/SP/CG, CORAL
//     Graph500/Hashing/AMG2013, and Velvet-style genome assembly) that
//     stream their memory references online;
//   - a multi-level set-associative cache/memory hierarchy simulator with
//     load/store differentiation, write-back dirty tracking at sector
//     granularity, and page-organized levels;
//   - technology models for DRAM, PCM, STT-RAM, FeRAM, eDRAM, and HMC
//     (Table 1 of the paper);
//   - analytic performance (AMAT) and energy (dynamic + static, EDP)
//     models; and
//   - an experiment harness that regenerates every table and figure of the
//     paper's evaluation over the 4LC, NMM, 4LCNVM, and NDM designs.
//
// # Quick start
//
//	suite, err := hybridmem.NewSuite(hybridmem.Config{
//	        Workloads: []string{"CG"},
//	})
//	if err != nil { ... }
//	rows, err := suite.NMM(hybridmem.PCM) // Figure 1/2 data
//
// See the examples directory for complete programs, and DESIGN.md /
// EXPERIMENTS.md for the system inventory and reproduction notes.
package hybridmem

import (
	"hybridmem/internal/cache"
	"hybridmem/internal/core"
	"hybridmem/internal/design"
	"hybridmem/internal/exp"
	"hybridmem/internal/model"
	"hybridmem/internal/ndm"
	"hybridmem/internal/report"
	"hybridmem/internal/tech"
	"hybridmem/internal/trace"
	"hybridmem/internal/workload"
	"hybridmem/internal/workload/catalog"
)

// Tech describes one memory technology: latencies, per-bit energies, and
// static power. See Table 1 of the paper.
type Tech = tech.Tech

// Predefined technologies (Table 1).
var (
	DRAM   = tech.DRAM
	PCM    = tech.PCM
	STTRAM = tech.STTRAM
	FeRAM  = tech.FeRAM
	EDRAM  = tech.EDRAM
	HMC    = tech.HMC
)

// TechByName looks up a technology in the builtin catalog by
// case-insensitive name or alias.
func TechByName(name string) (Tech, error) { return tech.Builtin().Tech(name) }

// NVMs returns the paper's non-volatile main-memory candidates.
func NVMs() []Tech { return tech.Builtin().NVMs() }

// LLCs returns the paper's fast volatile last-level-cache candidates.
func LLCs() []Tech { return tech.Builtin().LLCs() }

// Config sizes an experiment run; the zero value reproduces the paper's
// defaults at the default co-scaling factor.
type Config = exp.Config

// Suite is a profiled workload set ready to evaluate design points: the
// framework's main entry point.
type Suite = exp.Suite

// NewSuite profiles the configured workloads through the shared SRAM cache
// prefix and returns a Suite ready to evaluate design points.
func NewSuite(cfg Config) (*Suite, error) { return exp.NewSuite(cfg) }

// Row is one design configuration's outcome across the workload suite.
type Row = exp.Row

// WorkloadProfile is one workload's reusable simulation state: shared
// SRAM-prefix statistics plus the recorded post-L3 boundary stream. Use it
// to evaluate many design points against one expensive workload run.
type WorkloadProfile = exp.WorkloadProfile

// ProfileWorkload simulates one workload through the shared SRAM prefix and
// returns its reusable profile. dilution is the L1-hit dilution factor
// (DefaultDilution recommended; see Config.Dilution).
func ProfileWorkload(w Workload, scale uint64, dilution int) (*WorkloadProfile, error) {
	return exp.ProfileWorkload(w, scale, dilution)
}

// DefaultDilution is the default L1-hit dilution factor.
const DefaultDilution = exp.DefaultDilution

// NDMResult is one workload's NDM oracle exploration.
type NDMResult = exp.NDMResult

// Heatmap is a Figures 9-10 style grid of normalized runtime or energy.
type Heatmap = exp.Heatmap

// Evaluation is the modelled outcome of one workload on one design, with
// both absolute and reference-normalized metrics.
type Evaluation = model.Evaluation

// Profile is the per-level statistics input to the performance and energy
// models.
type Profile = model.Profile

// Workload is one instrumented benchmark kernel.
type Workload = workload.Workload

// WorkloadOptions sizes a workload (footprint co-scaling and iterations).
type WorkloadOptions = workload.Options

// Region is a named span of a workload's simulated address space; custom
// workloads declare their data structures as Regions so placement policies
// (the NDM oracle) can partition over them.
type Region = workload.Region

// AddrRange is a half-open address interval used by partitioned memories.
type AddrRange = core.AddrRange

// WorkloadNames lists the Table 4 benchmark suite.
func WorkloadNames() []string { return append([]string(nil), catalog.Names...) }

// NewWorkload builds one Table 4 workload by name.
func NewWorkload(name string, opts WorkloadOptions) (Workload, error) {
	return catalog.New(name, opts)
}

// Ref is one memory reference. Sink consumes a reference stream in batches
// through its one method, AccessBatch; implement it (or use Hierarchy) to
// analyze custom workloads, or implement Workload to feed custom kernels
// into the harness. Packed is the delta-encoded boundary-store
// representation WorkloadProfile records into. See the internal/trace
// package comment for the pipeline description.
type (
	Ref    = trace.Ref
	Sink   = trace.Sink
	Packed = trace.Packed
)

// Mem emits a custom workload's references one at a time — 8-, 4- and
// 1-byte and n-byte loads and stores — batching them into a Sink. Call its
// Flush once when the stream ends.
type Mem = workload.Mem

// NewMem returns a Mem delivering batches into sink.
func NewMem(sink Sink) Mem { return workload.NewMem(sink) }

// Reference kinds.
const (
	Load  = trace.Load
	Store = trace.Store
)

// Hierarchy is the multi-level cache/memory simulator; it implements Sink.
type Hierarchy = core.Hierarchy

// LevelStats is one simulated level's technology, capacity, and statistics.
type LevelStats = core.LevelStats

// Counter is a Sink that counts loads, stores, and bytes.
type Counter = trace.Counter

// Backend describes a design point below the shared SRAM prefix.
type Backend = design.Backend

// Design-space constructors (Section III.A of the paper), built by the
// builtin catalog's design registry.
var (
	// ReferenceDesign is the baseline: SRAM caches over DRAM.
	ReferenceDesign = design.DefaultRegistry().Reference
	// FourLC adds an eDRAM/HMC fourth-level cache over DRAM.
	FourLC = design.DefaultRegistry().FourLCWith
	// NMM places a DRAM cache over NVM main memory.
	NMM = design.DefaultRegistry().NMMWith
	// FourLCNVM combines an eDRAM/HMC cache with NVM main memory.
	FourLCNVM = design.DefaultRegistry().FourLCNVMWith
	// NDMDesign partitions the address space between DRAM and NVM.
	NDMDesign = design.DefaultRegistry().NDMWith
)

// EHConfig and NConfig are rows of the paper's Tables 2 and 3.
type (
	EHConfig = design.EHConfig
	NConfig  = design.NConfig
)

// Configuration tables (Tables 2 and 3).
var (
	EHConfigs = design.EHConfigs
	NConfigs  = design.NConfigs
)

// DefaultScale is the default capacity co-scaling divisor (see DESIGN.md).
const DefaultScale = design.DefaultScale

// CacheConfig configures a single simulated cache level.
type CacheConfig = cache.Config

// CacheStats are per-level reference statistics.
type CacheStats = cache.Stats

// RangeStats and Placement support the NDM oracle partitioning study.
type (
	RangeStats = ndm.RangeStats
	Placement  = ndm.Placement
)

// Table renders results as aligned text or CSV.
type Table = report.Table

// FigureTable formats one figure's rows like the paper's figures.
var FigureTable = report.FigureTable

// HeatmapTable formats a heat map grid.
var HeatmapTable = report.HeatmapTable
