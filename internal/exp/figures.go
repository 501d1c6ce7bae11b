package exp

import (
	"fmt"

	"hybridmem/internal/core"
	"hybridmem/internal/design"
	"hybridmem/internal/model"
	"hybridmem/internal/ndm"
	"hybridmem/internal/tech"
)

// Row is one configuration's outcome across the workload suite: the
// per-workload evaluations plus their average — one bar of a paper figure.
type Row struct {
	Label       string
	Avg         model.Evaluation
	PerWorkload []model.Evaluation
}

// The design families a RowSet can sweep.
const (
	FamilyNMM    = "NMM"
	Family4LC    = "4LC"
	Family4LCNVM = "4LCNVM"
)

// RowSet selects one figure's rows: a design family's Table 2 or Table 3
// configurations over one technology choice. NVM applies to NMM and 4LCNVM,
// LLC to 4LC and 4LCNVM.
type RowSet struct {
	Family   string
	LLC, NVM tech.Tech
}

// Rows evaluates every row set through one RunJobs call and returns each
// set's rows, one per configuration, in sets order. One call lets design
// points that share a cache geometry across sets — every EH configuration
// under 4LC and 4LCNVM, every N configuration under each NVM — share one
// replay per workload (see EvaluateFanout).
func (s *Suite) Rows(sets []RowSet) ([][]Row, error) {
	n := len(s.Profiles)
	var jobs []Job
	var labels [][]string
	for _, set := range sets {
		var names []string
		var mk func(i int, footprint uint64) design.Backend
		switch set.Family {
		case FamilyNMM:
			for _, cfg := range design.NConfigs {
				names = append(names, cfg.Name)
			}
			mk = func(i int, footprint uint64) design.Backend {
				return s.reg.NMMWith(design.NConfigs[i], set.NVM, s.Cfg.Scale, footprint)
			}
		case Family4LC, Family4LCNVM:
			for _, cfg := range design.EHConfigs {
				names = append(names, cfg.Name)
			}
			mk = func(i int, footprint uint64) design.Backend {
				if set.Family == Family4LC {
					return s.reg.FourLCWith(design.EHConfigs[i], set.LLC, s.Cfg.Scale, footprint)
				}
				return s.reg.FourLCNVMWith(design.EHConfigs[i], set.LLC, set.NVM, s.Cfg.Scale, footprint)
			}
		default:
			return nil, fmt.Errorf("exp: unknown design family %q", set.Family)
		}
		labels = append(labels, names)
		for i := range names {
			for _, wp := range s.Profiles {
				jobs = append(jobs, Job{WP: wp, B: mk(i, wp.Footprint)})
			}
		}
	}
	results, err := RunJobs(s.ctx, jobs, s.Cfg.Workers)
	if err != nil {
		return nil, err
	}
	out := make([][]Row, len(sets))
	for k, ls := range labels {
		rows := make([]Row, len(ls))
		for i, label := range ls {
			evals := results[:n:n]
			results = results[n:]
			rows[i] = Row{Label: label, Avg: model.Average(label, evals), PerWorkload: evals}
		}
		out[k] = rows
	}
	return out, nil
}

// rows evaluates a single row set.
func (s *Suite) rows(set RowSet) ([]Row, error) {
	rs, err := s.Rows([]RowSet{set})
	if err != nil {
		return nil, err
	}
	return rs[0], nil
}

// NMM evaluates Table 3's N1-N9 DRAM-cache configurations over the given
// NVM main-memory technology: the data behind Figures 1 (normalized run
// time) and 2 (normalized energy).
func (s *Suite) NMM(nvm tech.Tech) ([]Row, error) {
	return s.rows(RowSet{Family: FamilyNMM, NVM: nvm})
}

// FourLC evaluates Table 2's EH1-EH8 configurations with the given LLC
// technology over DRAM: Figures 3 and 4.
func (s *Suite) FourLC(llc tech.Tech) ([]Row, error) {
	return s.rows(RowSet{Family: Family4LC, LLC: llc})
}

// FourLCNVM evaluates Table 2's configurations with the given LLC
// technology over the given NVM: Figures 5 and 6.
func (s *Suite) FourLCNVM(llc, nvm tech.Tech) ([]Row, error) {
	return s.rows(RowSet{Family: Family4LCNVM, LLC: llc, NVM: nvm})
}

// NDMResult is one workload's oracle exploration: every placement's
// evaluation, and the index of the placement chosen (minimum EDP).
type NDMResult struct {
	Workload   string
	Placements []ndm.Placement
	Evals      []model.Evaluation
	Chosen     int
}

// NDM runs the oracle partitioning study for one NVM technology: the data
// behind Figures 7 and 8. It returns the per-workload exploration results
// and the figure row (averaging each workload's chosen placement).
//
// Following the paper's presentation, trivial placements — those that leave
// the bulk of the footprint on DRAM and therefore behave like the base case
// ("the best performance of these permutations ... is not included in the
// figure") — are excluded from the figure: the chosen placement is the
// minimum-EDP one among those that move at least half of the footprint to
// NVM (the design's capacity purpose), falling back to the overall minimum
// if none qualifies.
func (s *Suite) NDM(nvm tech.Tech) ([]NDMResult, Row, error) {
	const maxRanges = 3
	var results []NDMResult
	var chosen []model.Evaluation
	for _, wp := range s.Profiles {
		cands := ndm.Candidates(wp.Regions, 0, maxRanges)
		profiled, other := ndm.Profile(cands, wp.Boundary)
		placements := ndm.Placements(profiled)
		placements = append(placements,
			ndm.WriteAwarePlacement(profiled, design.NDMDRAMCapacity/s.Cfg.Scale))
		res := NDMResult{Workload: wp.Name, Placements: placements, Chosen: -1}
		fallback := -1
		for _, p := range placements {
			modules := ndmModules(p, profiled, other, nvm, s.reg.DRAM(), wp.Footprint)
			ev, err := wp.EvaluateProfile(fmt.Sprintf("NDM/%s/%s", nvm.Name, p.Label), modules)
			if err != nil {
				return nil, Row{}, err
			}
			res.Evals = append(res.Evals, ev)
			i := len(res.Evals) - 1
			if fallback < 0 || ev.NormEDP < res.Evals[fallback].NormEDP {
				fallback = i
			}
			if p.NVMBytes() >= wp.Footprint/2 &&
				(res.Chosen < 0 || ev.NormEDP < res.Evals[res.Chosen].NormEDP) {
				res.Chosen = i
			}
		}
		if res.Chosen < 0 {
			res.Chosen = fallback
		}
		results = append(results, res)
		chosen = append(chosen, res.Evals[res.Chosen])
	}
	label := "NDM/" + nvm.Name
	return results, Row{Label: label, Avg: model.Average(label, chosen), PerWorkload: chosen}, nil
}

// ndmModules builds the partitioned memory's two module snapshots
// analytically from the profiled per-range traffic.
func ndmModules(p ndm.Placement, all []ndm.RangeStats, other ndm.RangeStats, nvm, dram tech.Tech, footprint uint64) []core.LevelStats {
	nvmLoads, nvmStores, nvmLB, nvmSB := p.Traffic()

	var totLoads, totStores, totLB, totSB uint64
	for _, r := range all {
		totLoads += r.Loads
		totStores += r.Stores
		totLB += r.LoadBits
		totSB += r.StoreBits
	}
	totLoads += other.Loads
	totStores += other.Stores
	totLB += other.LoadBits
	totSB += other.StoreBits

	nvmBytes := p.NVMBytes()
	dramBytes := uint64(0)
	if footprint > nvmBytes {
		dramBytes = footprint - nvmBytes
	}

	nvmModule := core.LevelStats{Name: "NVM(" + nvm.Name + ")", Tech: nvm, Capacity: nvmBytes}
	nvmModule.Stats.Loads = nvmLoads
	nvmModule.Stats.LoadHits = nvmLoads
	nvmModule.Stats.Stores = nvmStores
	nvmModule.Stats.StoreHits = nvmStores
	nvmModule.Stats.LoadBits = nvmLB
	nvmModule.Stats.StoreBits = nvmSB

	dramModule := core.LevelStats{Name: "DRAM-part", Tech: dram, Capacity: dramBytes}
	dramModule.Stats.Loads = totLoads - nvmLoads
	dramModule.Stats.LoadHits = totLoads - nvmLoads
	dramModule.Stats.Stores = totStores - nvmStores
	dramModule.Stats.StoreHits = totStores - nvmStores
	dramModule.Stats.LoadBits = totLB - nvmLB
	dramModule.Stats.StoreBits = totSB - nvmSB

	return []core.LevelStats{nvmModule, dramModule}
}
