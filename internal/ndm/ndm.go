// Package ndm implements the paper's NVM+DRAM partitioned-memory design
// (Section III.A, "NDM") and its oracle placement methodology (Section V):
// identify the contiguous address ranges that account for the bulk of the
// memory references, merge ranges close to each other (the paper finds 2-3
// per workload), then evaluate every placement that assigns one range to
// NVM and the rest to DRAM, as an oracle that statically partitions the
// virtual address space would.
//
// Because the NDM design has no cache between L3 and the partitioned
// memory, a placement's statistics are a pure re-labelling of the post-L3
// boundary stream by address range. The profiler therefore counts the
// boundary stream into per-range buckets once, and every placement is
// evaluated analytically — no replay required.
package ndm

import (
	"fmt"
	"sort"

	"hybridmem/internal/core"
	"hybridmem/internal/trace"
	"hybridmem/internal/workload"
)

// RangeStats holds the post-L3 traffic observed against one address range.
type RangeStats struct {
	Range core.AddrRange
	// Name lists the workload regions the range covers.
	Name string
	// Bytes is the footprint the range covers (sum of region sizes).
	Bytes uint64

	Loads     uint64
	Stores    uint64
	LoadBits  uint64
	StoreBits uint64
}

// Accesses returns total requests against the range.
func (r RangeStats) Accesses() uint64 { return r.Loads + r.Stores }

// Profile counts a post-L3 boundary stream into the given candidate ranges.
// References outside every range are accumulated into the returned "other"
// bucket (they stay on DRAM in every placement). The stream is walked batch
// by batch.
func Profile(ranges []RangeStats, st *trace.Packed) (out []RangeStats, other RangeStats) {
	out = append([]RangeStats(nil), ranges...)
	sort.Slice(out, func(i, j int) bool { return out[i].Range.Start < out[j].Range.Start })
	other = RangeStats{Name: "other"}
	st.Batches(nil, func(refs []trace.Ref) error {
		for i := range refs {
			r := refs[i]
			b := findRange(out, r.Addr)
			tgt := &other
			if b >= 0 {
				tgt = &out[b]
			}
			bits := uint64(r.Size) * 8
			if r.Kind == trace.Store {
				tgt.Stores++
				tgt.StoreBits += bits
			} else {
				tgt.Loads++
				tgt.LoadBits += bits
			}
		}
		return nil
	})
	return out, other
}

// findRange locates the range containing addr by binary search, or -1.
func findRange(rs []RangeStats, addr uint64) int {
	lo, hi := 0, len(rs)
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case addr < rs[mid].Range.Start:
			hi = mid
		case addr >= rs[mid].Range.End:
			lo = mid + 1
		default:
			return mid
		}
	}
	return -1
}

// Candidates merges a workload's regions into candidate ranges: adjacent
// regions whose gap is at most maxGap bytes coalesce, and the result is
// capped at maxRanges candidates by greedily merging the smallest neighbors
// — mirroring the paper's "merged ranges close to each other" step that
// yields 2-3 ranges per workload.
func Candidates(regions []workload.Region, maxGap uint64, maxRanges int) []RangeStats {
	if len(regions) == 0 {
		return nil
	}
	rs := append([]workload.Region(nil), regions...)
	sort.Slice(rs, func(i, j int) bool { return rs[i].Base < rs[j].Base })

	var out []RangeStats
	cur := RangeStats{
		Range: core.AddrRange{Start: rs[0].Base, End: rs[0].End()},
		Name:  rs[0].Name,
		Bytes: rs[0].Size,
	}
	for _, r := range rs[1:] {
		if r.Base <= cur.Range.End+maxGap {
			cur.Range.End = r.End()
			cur.Name += "+" + r.Name
			cur.Bytes += r.Size
		} else {
			out = append(out, cur)
			cur = RangeStats{
				Range: core.AddrRange{Start: r.Base, End: r.End()},
				Name:  r.Name,
				Bytes: r.Size,
			}
		}
	}
	out = append(out, cur)

	// Cap the candidate count by merging the pair of neighbors whose
	// combined footprint is smallest, repeatedly.
	for maxRanges > 0 && len(out) > maxRanges {
		best := 0
		for i := 1; i < len(out)-1; i++ {
			if out[i].Bytes+out[i+1].Bytes < out[best].Bytes+out[best+1].Bytes {
				best = i
			}
		}
		out[best].Range.End = out[best+1].Range.End
		out[best].Name += "+" + out[best+1].Name
		out[best].Bytes += out[best+1].Bytes
		out = append(out[:best+1], out[best+2:]...)
	}
	return out
}

// Placement is one oracle partitioning: the ranges assigned to NVM.
type Placement struct {
	// Label describes the placement (e.g. "nvm:u+rhs").
	Label string
	// NVM lists the ranges (with their profiled traffic) placed on NVM.
	NVM []RangeStats
}

// NVMBytes returns the footprint placed on NVM.
func (p Placement) NVMBytes() uint64 {
	var b uint64
	for _, r := range p.NVM {
		b += r.Bytes
	}
	return b
}

// NVMRanges returns the address ranges placed on NVM.
func (p Placement) NVMRanges() []core.AddrRange {
	out := make([]core.AddrRange, len(p.NVM))
	for i, r := range p.NVM {
		out[i] = r.Range
	}
	return out
}

// Traffic sums the profiled NVM-side traffic of the placement.
func (p Placement) Traffic() (loads, stores, loadBits, storeBits uint64) {
	for _, r := range p.NVM {
		loads += r.Loads
		stores += r.Stores
		loadBits += r.LoadBits
		storeBits += r.StoreBits
	}
	return
}

// Placements enumerates the paper's oracle exploration: each candidate
// range alone on NVM, plus the all-on-NVM extreme. (All-on-DRAM is the
// reference system itself.)
func Placements(cands []RangeStats) []Placement {
	var out []Placement
	for _, c := range cands {
		out = append(out, Placement{Label: "nvm:" + c.Name, NVM: []RangeStats{c}})
	}
	if len(cands) > 1 {
		out = append(out, Placement{Label: "nvm:all", NVM: append([]RangeStats(nil), cands...)})
	}
	return out
}

// String formats a placement summary.
func (p Placement) String() string {
	l, s, _, _ := p.Traffic()
	return fmt.Sprintf("%s (%d bytes on NVM, %d loads, %d stores)", p.Label, p.NVMBytes(), l, s)
}

// writeWeight is how much more a store counts than a load when ranking
// ranges for DRAM residency; it reflects NVM's write-latency/energy
// asymmetry (PCM writes cost ~5-17x reads in Table 1).
const writeWeight = 5

// WriteAwarePlacement makes the paper's NDM placement policy concrete:
// "frequently accessed and updated objects are stored in DRAM, while the
// rest are stored in NVM". Ranges are ranked by access density with stores
// weighted writeWeight times loads; the densest ranges stay on DRAM until
// dramBudget bytes are used, and everything else goes to NVM.
func WriteAwarePlacement(profiled []RangeStats, dramBudget uint64) Placement {
	ranked := append([]RangeStats(nil), profiled...)
	sort.Slice(ranked, func(i, j int) bool {
		return rangeDensity(ranked[i]) > rangeDensity(ranked[j])
	})
	var used uint64
	var nvm []RangeStats
	for _, r := range ranked {
		if used+r.Bytes <= dramBudget {
			used += r.Bytes // stays on DRAM
		} else {
			nvm = append(nvm, r)
		}
	}
	return Placement{Label: "nvm:write-aware", NVM: nvm}
}

// rangeDensity scores a range: weighted accesses per byte.
func rangeDensity(r RangeStats) float64 {
	if r.Bytes == 0 {
		return 0
	}
	return (float64(r.Loads) + writeWeight*float64(r.Stores)) / float64(r.Bytes)
}
