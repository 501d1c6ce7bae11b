package main

import (
	"math"
	"sort"

	"hybridmem/internal/design"
	"hybridmem/internal/serve"
)

// Every benchmark input is a pure function of (seed, stream, index): a
// hashed draw rather than a position in a shared random sequence, so any
// client goroutine can build request i without coordination, and the same
// seed always yields the same inputs in any interleaving.

// Input streams: each generator hashes its own stream so that draws for one
// purpose never correlate with draws for another.
const (
	streamOrder uint64 = iota + 1
	streamPerm
	streamZipf
	streamMix
	streamHotCustom
	streamExplore
	streamCold
	streamLadder
)

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// draw returns the hashed 64-bit draw for (seed, stream, index).
func draw(seed, stream, index uint64) uint64 {
	return mix64(mix64(mix64(seed)^stream) ^ index)
}

// unit returns draw(seed, stream, index) as a float in [0, 1).
func unit(seed, stream, index uint64) float64 {
	return float64(draw(seed, stream, index)>>11) / (1 << 53)
}

// permutation returns the permutation of [0, n) keyed by key.
func permutation(key uint64, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := int(draw(key, streamPerm, uint64(i)) % uint64(i+1))
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// gridPoint is one Table 2/3 design point, in the serving API's terms.
type gridPoint struct {
	Family, Config, LLC, NVM string
}

// backend builds the point for one workload footprint.
func (g gridPoint) backend(reg *design.Registry, scale, footprint uint64) (design.Backend, error) {
	switch g.Family {
	case "4LC":
		return reg.FourLC(g.Config, g.LLC, scale, footprint)
	case "NMM":
		return reg.NMM(g.Config, g.NVM, scale, footprint)
	default:
		return reg.FourLCNVM(g.Config, g.LLC, g.NVM, scale, footprint)
	}
}

// spec is the point as a serving-API design.
func (g gridPoint) spec() serve.DesignSpec {
	return serve.DesignSpec{Family: g.Family, Config: g.Config, LLC: g.LLC, NVM: g.NVM}
}

// grid enumerates the paper's 91-point Table 2/3 grid: 4LC (EH1-EH8 x
// eDRAM/HMC), NMM (N1-N9 x PCM/STTRAM/FeRAM), then 4LCNVM (EH1-EH8 x
// eDRAM/HMC x PCM/STTRAM/FeRAM).
func grid() []gridPoint {
	llcs := []string{"eDRAM", "HMC"}
	nvms := []string{"PCM", "STTRAM", "FeRAM"}
	var out []gridPoint
	for _, c := range design.EHConfigs {
		for _, l := range llcs {
			out = append(out, gridPoint{Family: "4LC", Config: c.Name, LLC: l})
		}
	}
	for _, c := range design.NConfigs {
		for _, n := range nvms {
			out = append(out, gridPoint{Family: "NMM", Config: c.Name, NVM: n})
		}
	}
	for _, c := range design.EHConfigs {
		for _, l := range llcs {
			for _, n := range nvms {
				out = append(out, gridPoint{Family: "4LCNVM", Config: c.Name, LLC: l, NVM: n})
			}
		}
	}
	return out
}

// The custom-geometry space: one back-end cache (DRAM, eDRAM or HMC, 64 KiB
// to 8 MiB, 64 B to 4 KiB pages, 16-way) in front of a DRAM or NVM main
// memory. Every capacity and page size is a power of two, so every set count
// is one too; the serving layer fails non-power-of-two set counts as a 500
// (see README.md), which is a defect, not traffic to measure.
var (
	customCacheTechs = []string{"DRAM", "eDRAM", "HMC"}
	customMemTechs   = []string{"DRAM", "PCM", "STTRAM", "FeRAM"}
	customPages      = []uint64{64, 512, 2048, 4096}
)

const (
	customMinCache = 64 << 10
	customCapSteps = 8 // 64 KiB .. 8 MiB
	customAssoc    = 16
)

// geometry is one custom single-cache design.
type geometry struct {
	CacheTech string
	CacheSize uint64
	Page      uint64
	MemTech   string
}

// customGeometry draws geometry (seed, stream, index).
func customGeometry(seed, stream, index uint64) geometry {
	h := draw(seed, stream, index)
	return geometry{
		CacheTech: customCacheTechs[h%uint64(len(customCacheTechs))],
		CacheSize: customMinCache << ((h >> 8) % customCapSteps),
		Page:      customPages[(h>>16)%uint64(len(customPages))],
		MemTech:   customMemTechs[(h>>24)%uint64(len(customMemTechs))],
	}
}

// spec is the geometry as a named serving-API custom design. Every request
// names its design: unnamed custom designs share one circuit-breaker key,
// so a failure in one would refuse all of them (see README.md).
func (g geometry) spec(name string) serve.DesignSpec {
	return serve.DesignSpec{Family: "custom", Custom: &serve.CustomSpec{
		Name:   name,
		Caches: []serve.CustomLevel{{Tech: g.CacheTech, SizeBytes: g.CacheSize, LineBytes: g.Page, Assoc: customAssoc}},
		Memory: serve.CustomMemory{Tech: g.MemTech},
	}}
}

// backend builds the geometry for one workload footprint exactly as the
// serving layer builds a custom design: cache level "L4", terminal sized to
// the footprint.
func (g geometry) backend(reg *design.Registry, name string, footprint uint64) (design.Backend, error) {
	ct, err := reg.Tech(g.CacheTech)
	if err != nil {
		return design.Backend{}, err
	}
	mt, err := reg.Tech(g.MemTech)
	if err != nil {
		return design.Backend{}, err
	}
	return design.Backend{
		Name:   "custom/" + name,
		Caches: []design.LevelSpec{{Name: "L4", Tech: ct, Size: g.CacheSize, Line: g.Page, Assoc: customAssoc}},
		Memory: design.MemorySpec{Name: mt.Name + "-mem", Tech: mt, Capacity: footprint},
	}, nil
}

// zipf samples ranks 0..n-1 with probability proportional to 1/(rank+1)^s
// by inverting the cumulative distribution at a hashed uniform draw.
type zipf struct {
	cdf []float64
}

func newZipf(n int, s float64) *zipf {
	cdf := make([]float64, n)
	var sum float64
	for k := 0; k < n; k++ {
		sum += math.Pow(float64(k+1), -s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return &zipf{cdf: cdf}
}

// rank returns the rank drawn for (seed, stream, index).
func (z *zipf) rank(seed, stream, index uint64) int {
	i := sort.SearchFloat64s(z.cdf, unit(seed, stream, index))
	return min(i, len(z.cdf)-1)
}
