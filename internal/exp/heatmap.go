package exp

import (
	"fmt"

	"hybridmem/internal/design"
	"hybridmem/internal/model"
	"hybridmem/internal/tech"
)

// DefaultMultipliers are the latency/energy scaling factors swept by the
// Figures 9-10 heat maps (1x to 20x, as in the paper's axes).
var DefaultMultipliers = []float64{1, 2, 5, 10, 20}

// Heatmap is a grid of average normalized values indexed
// [writeMult][readMult], matching the paper's heat-map orientation (read
// latency on one axis, write on the other).
type Heatmap struct {
	// Kind is "time" (Figure 9) or "energy" (Figure 10).
	Kind string
	// ReadMults and WriteMults are the axis values.
	ReadMults  []float64
	WriteMults []float64
	// Cells[w][r] is the average normalized runtime or energy for
	// write multiplier WriteMults[w] and read multiplier ReadMults[r].
	Cells [][]float64
}

// At returns the cell for the given axis indices.
func (h *Heatmap) At(w, r int) float64 { return h.Cells[w][r] }

// HeatmapConfig is the NMM configuration the paper generates its heat maps
// from: 512MB DRAM cache with 512B pages (configuration N6).
var HeatmapConfig = design.NConfig{Name: "N6", Capacity: 512 << 20, PageSize: 512}

// LatencyHeatmap reproduces Figure 9: average normalized runtime of the
// NMM design as the main memory's read and write latency scale from DRAM's.
func (s *Suite) LatencyHeatmap(readMults, writeMults []float64) (*Heatmap, error) {
	return s.heatmap("time", readMults, writeMults, func(t tech.Tech, r, w float64) tech.Tech {
		return t.WithLatencyScale(r, w)
	}, func(ev model.Evaluation) float64 { return ev.NormTime })
}

// EnergyHeatmap reproduces Figure 10: average normalized total energy of
// the NMM design as the main memory's read and write per-bit energy scale
// from DRAM's. Following the paper's NVM assumption, the scaled technology
// draws no static power (it stands in for a non-volatile device).
func (s *Suite) EnergyHeatmap(readMults, writeMults []float64) (*Heatmap, error) {
	return s.heatmap("energy", readMults, writeMults, func(t tech.Tech, r, w float64) tech.Tech {
		return t.WithEnergyScale(r, w).WithStatic(0, 0)
	}, func(ev model.Evaluation) float64 { return ev.NormEnergy })
}

// heatmap sweeps the multiplier grid: one NMM design point per cell and
// workload whose main memory is DRAM rescaled by the cell's multipliers.
// The points differ only in the terminal's technology, so they form one
// replay class per workload — Figure 1's N6 — replayed at most once per
// suite and relabelled per cell.
func (s *Suite) heatmap(kind string, readMults, writeMults []float64,
	scaleTech func(tech.Tech, float64, float64) tech.Tech,
	metric func(model.Evaluation) float64) (*Heatmap, error) {

	if len(readMults) == 0 {
		readMults = DefaultMultipliers
	}
	if len(writeMults) == 0 {
		writeMults = DefaultMultipliers
	}
	var jobs []Job
	for _, wm := range writeMults {
		for _, rm := range readMults {
			for _, wp := range s.Profiles {
				b := s.reg.NMMWith(HeatmapConfig, scaleTech(s.reg.DRAM(), rm, wm), s.Cfg.Scale, wp.Footprint)
				b.Name = fmt.Sprintf("heatmap/%s/r%gx/w%gx", kind, rm, wm)
				jobs = append(jobs, Job{WP: wp, B: b})
			}
		}
	}
	evs, err := runJobs(s.ctx, s.classes, jobs, s.Cfg.Workers)
	if err != nil {
		return nil, err
	}
	hm := &Heatmap{
		Kind:       kind,
		ReadMults:  append([]float64(nil), readMults...),
		WriteMults: append([]float64(nil), writeMults...),
		Cells:      make([][]float64, len(writeMults)),
	}
	for wi := range writeMults {
		hm.Cells[wi] = make([]float64, len(readMults))
		for ri := range readMults {
			var sum float64
			for _, ev := range evs[:len(s.Profiles)] {
				sum += metric(ev)
			}
			evs = evs[len(s.Profiles):]
			hm.Cells[wi][ri] = sum / float64(len(s.Profiles))
		}
	}
	return hm, nil
}
