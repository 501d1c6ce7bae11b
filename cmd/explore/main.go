// Command explore autosearches the hybrid-memory design space with the
// repository's two-fidelity evaluation pipeline. It enumerates a
// constraint-bounded grid of design points (cache technology × capacity ×
// page size × associativity in front of a DRAM or NVM terminal, axes drawn
// from the technology catalog; -extensions widens each axis to every
// catalog entry of the class), screens every point analytically from the
// workloads' reuse sketches (package analytic, microseconds per point),
// computes the Pareto frontier over mean normalized EDP (minimize), cache
// capacity (minimize), and NVM lifetime (maximize), and promotes only the
// frontier to exact fan-out replay. The report quotes the predicted versus
// measured relative error for every promoted point, so each run carries its
// own evidence that the screening fidelity was sufficient.
//
// Associativity is a promotion-only axis: the analytic screen assumes
// fully-associative LRU, so candidates differing only in associativity
// screen identically and diverge (slightly — see the accuracy goldens in
// internal/exp) once replayed.
//
// cmd/ndmexplore is the complement for partitioned NDM terminals, whose
// range-routed placements the analytic model deliberately refuses
// (*analytic.UnsupportedError) and which therefore search by replay alone.
//
// Usage:
//
//	explore                           # default grid, table report
//	explore -extensions -json         # widened axes, machine-readable report
//	explore -caps 64,256 -pages 4096 -nvms PCM -workloads CG,Graph500
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"slices"
	"sort"
	"strconv"
	"time"

	"hybridmem/internal/analytic"
	"hybridmem/internal/cli"
	"hybridmem/internal/design"
	"hybridmem/internal/exp"
	"hybridmem/internal/model"
	"hybridmem/internal/report"
	"hybridmem/internal/reuse"
	"hybridmem/internal/tech"
)

// candidate is one enumerated design point: its axes, its analytic
// screening result, and — if promoted — its exact replay result.
type candidate struct {
	name      string
	cacheTech tech.Tech // zero Name = no back-end cache
	capMB     uint64    // unscaled cache capacity (paper space)
	page      uint64
	assoc     int
	memTech   tech.Tech

	// Screening (analytic) results.
	pred     []model.Evaluation
	predAvg  model.Evaluation
	lifetime float64 // min LifetimeYears across workloads (+Inf = unlimited)

	// Promotion (exact replay) results.
	meas    []model.Evaluation
	measAvg model.Evaluation
	errAMAT float64
	errEDP  float64
}

// backend materializes the candidate for one workload footprint, following
// the capacity-scaling and naming conventions of package design's
// constructors (Size = capacity/scale, terminal sized to the footprint).
func (c *candidate) backend(scale, footprint uint64) design.Backend {
	memName := "DRAM"
	if c.memTech.NonVolatile {
		memName = "NVM(" + c.memTech.Name + ")"
	}
	b := design.Backend{
		Name:   c.name,
		Memory: design.MemorySpec{Name: memName, Tech: c.memTech, Capacity: footprint},
	}
	if c.cacheTech.Name != "" {
		b.Caches = []design.LevelSpec{{
			Name: c.cacheTech.Name + "$", Tech: c.cacheTech,
			Size: c.capMB << 20 / scale, Line: c.page, Assoc: c.assoc,
		}}
	}
	return b
}

func main() {
	cmd := cli.New("explore", cli.Scale|cli.WorkloadScale|cli.Iters|cli.Workloads|cli.Catalog|cli.Workers)
	var (
		exts      = flag.Bool("extensions", false, "widen the cache/memory technology axes to every catalog entry of the class")
		llcF      = flag.String("llcs", "", "comma-separated cache-technology subset (default: DRAM + catalog LLC axis)")
		nvmF      = flag.String("nvms", "", "comma-separated terminal-technology subset (default: DRAM + catalog NVM axis)")
		capsF     = flag.String("caps", "4,8,16,64,256,512", "cache capacities to enumerate, MB, unscaled paper space")
		pagesF    = flag.String("pages", "64,512,2048,4096", "cache page sizes to enumerate, bytes (must be sketch granularities)")
		assocsF   = flag.String("assocs", "16", "cache associativities to enumerate (promotion-only axis)")
		nocache   = flag.Bool("nocache", true, "include cache-less candidates (raw DRAM/NVM terminals)")
		endurance = flag.Float64("endurance", 0, "per-cell write endurance override for lifetime (0 = per-technology default)")
		jsonOut   = flag.Bool("json", false, "emit the report as JSON instead of a table")
	)
	cmd.Parse()

	caps, err := cli.ParseList("caps", *capsF, parseUint)
	cmd.Exit(err)
	pages, err := cli.ParseList("pages", *pagesF, parseUint)
	cmd.Exit(err)
	for _, p := range pages {
		if !slices.Contains(reuse.DesignGranularities, p) {
			cmd.Exit(fmt.Errorf("page size %d is not a sketch granularity %v", p, reuse.DesignGranularities))
		}
	}
	assocs, err := cli.ParseList("assocs", *assocsF, parseUint)
	cmd.Exit(err)

	// Axes: paper defaults from the catalog; -extensions widens each class.
	nvms, llcs := cmd.Cat.NVMs(), cmd.Cat.LLCs()
	if *exts {
		nvms, llcs = cmd.Cat.Class(tech.ClassNVM), cmd.Cat.Class(tech.ClassLLC)
	}
	dram := cmd.Reg.DRAM()
	cacheTechs, err := filterTechs("llcs", append([]tech.Tech{dram}, llcs...), *llcF)
	cmd.Exit(err)
	memTechs, err := filterTechs("nvms", append([]tech.Tech{dram}, nvms...), *nvmF)
	cmd.Exit(err)

	cands, skipped := enumerate(cacheTechs, memTechs, caps, pages, assocs, cmd.Scale, *nocache)
	if len(cands) == 0 {
		cmd.Exit(errors.New("empty design space after constraints"))
	}

	fmt.Fprintln(os.Stderr, "explore: profiling workloads...")
	s, err := exp.NewSuite(cmd.ExpConfig())
	cmd.Exit(err)
	preds := make([]*analytic.Predictor, len(s.Profiles))
	for i, wp := range s.Profiles {
		preds[i], err = wp.PredictorWith(*endurance)
		cmd.Exit(err)
	}

	// Screen: every candidate × workload through the analytic predictor.
	screenStart := time.Now()
	for _, c := range cands {
		c.lifetime = math.Inf(1)
		for i, wp := range s.Profiles {
			p, err := preds[i].Predict(c.backend(cmd.Scale, wp.Footprint))
			if err != nil {
				cmd.Exit(fmt.Errorf("screening %s/%s: %w", c.name, wp.Name, err))
			}
			c.pred = append(c.pred, p.Eval)
			if p.LifetimeYears < c.lifetime {
				c.lifetime = p.LifetimeYears
			}
		}
		c.predAvg = model.Average(c.name, c.pred)
	}
	screenWall := time.Since(screenStart)
	points := len(cands) * len(s.Profiles)
	fmt.Fprintf(os.Stderr, "explore: screened %d candidates (%d workload-points, %d skipped by constraints) in %v (%.1f µs/point)\n",
		len(cands), points, skipped, screenWall.Round(time.Millisecond),
		float64(screenWall.Microseconds())/float64(points))

	frontier := paretoFrontier(cands)
	fmt.Fprintf(os.Stderr, "explore: frontier: %d of %d screened candidates\n", len(frontier), len(cands))

	// Promote: exact fan-out replay for frontier candidates only.
	var jobs []exp.Job
	for _, c := range frontier {
		for _, wp := range s.Profiles {
			jobs = append(jobs, exp.Job{WP: wp, B: c.backend(cmd.Scale, wp.Footprint)})
		}
	}
	replayStart := time.Now()
	evals, err := exp.RunJobs(cmd.Ctx, jobs, cmd.Workers)
	cmd.Exit(err)
	replayWall := time.Since(replayStart)
	fmt.Fprintf(os.Stderr, "explore: promoted %d frontier points × %d workloads replayed in %v (%.1f ms/point)\n",
		len(frontier), len(s.Profiles), replayWall.Round(time.Millisecond),
		float64(replayWall.Milliseconds())/float64(len(jobs)))

	var sumErrAMAT float64
	for i, c := range frontier {
		c.meas = evals[i*len(s.Profiles) : (i+1)*len(s.Profiles)]
		c.measAvg = model.Average(c.name, c.meas)
		c.errAMAT = relErr(c.predAvg.AMATNanos, c.measAvg.AMATNanos)
		c.errEDP = relErr(c.predAvg.NormEDP, c.measAvg.NormEDP)
		sumErrAMAT += c.errAMAT
	}
	meanErrAMAT := sumErrAMAT / float64(len(frontier))
	sort.Slice(frontier, func(i, j int) bool { return frontier[i].measAvg.NormEDP < frontier[j].measAvg.NormEDP })

	if *jsonOut {
		cmd.Exit(writeJSON(os.Stdout, cands, frontier, skipped, screenWall, replayWall, points, len(jobs), meanErrAMAT))
		return
	}
	cmd.Exit(writeTable(os.Stdout, frontier))
	for _, c := range frontier {
		fmt.Printf("frontier %s relerr_amat=%.4f relerr_edp=%.4f lifetime_years=%s\n",
			c.name, c.errAMAT, c.errEDP, lifetimeString(c.lifetime))
	}
	fmt.Printf("accuracy: mean relerr_amat=%.4f over %d promoted points (envelope %.2f/point, %.2f mean; internal/exp accuracy goldens)\n",
		meanErrAMAT, len(frontier), analytic.AMATTolerance, analytic.MeanAMATTolerance)
}

// enumerate builds the candidate grid, skipping points the constraints
// reject: a cache smaller than one page after scaling, and a DRAM cache in
// front of a DRAM terminal (pure overhead). The skip count is reported —
// never silently truncated.
func enumerate(cacheTechs, memTechs []tech.Tech, caps, pages, assocs []uint64, scale uint64, nocache bool) (cands []*candidate, skipped int) {
	for _, mt := range memTechs {
		if nocache {
			cands = append(cands, &candidate{
				name:    fmt.Sprintf("X/none/%s", mt.Name),
				memTech: mt,
			})
		}
		for _, ct := range cacheTechs {
			if !mt.NonVolatile && !ct.NonVolatile && ct.Name == mt.Name {
				skipped += len(caps) * len(pages) * len(assocs)
				continue
			}
			for _, capMB := range caps {
				for _, page := range pages {
					if capMB<<20/scale < page {
						skipped += len(assocs)
						continue
					}
					for _, assoc := range assocs {
						cands = append(cands, &candidate{
							name: fmt.Sprintf("X/%s-%dMB-p%d-a%d/%s",
								ct.Name, capMB, page, assoc, mt.Name),
							cacheTech: ct, capMB: capMB, page: page, assoc: int(assoc),
							memTech: mt,
						})
					}
				}
			}
		}
	}
	return cands, skipped
}

// paretoFrontier returns the candidates no other candidate dominates on
// (mean normalized EDP ↓, cache capacity ↓, minimum NVM lifetime ↑).
func paretoFrontier(cands []*candidate) []*candidate {
	dominates := func(a, b *candidate) bool {
		if a.predAvg.NormEDP > b.predAvg.NormEDP || a.capMB > b.capMB || a.lifetime < b.lifetime {
			return false
		}
		return a.predAvg.NormEDP < b.predAvg.NormEDP || a.capMB < b.capMB || a.lifetime > b.lifetime
	}
	var out []*candidate
	for _, c := range cands {
		dominated := false
		for _, o := range cands {
			if o != c && dominates(o, c) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, c)
		}
	}
	return out
}

func writeTable(w *os.File, frontier []*candidate) error {
	t := &report.Table{
		Title: "Pareto frontier (analytic screen → exact replay)",
		Headers: []string{"design", "cache_mb", "page", "pred_edp", "meas_edp",
			"pred_amat_ns", "meas_amat_ns", "relerr_amat", "relerr_edp", "lifetime_yr"},
	}
	for _, c := range frontier {
		t.AddRow(c.name,
			strconv.FormatUint(c.capMB, 10), strconv.FormatUint(c.page, 10),
			fmt.Sprintf("%.4f", c.predAvg.NormEDP), fmt.Sprintf("%.4f", c.measAvg.NormEDP),
			fmt.Sprintf("%.2f", c.predAvg.AMATNanos), fmt.Sprintf("%.2f", c.measAvg.AMATNanos),
			fmt.Sprintf("%.4f", c.errAMAT), fmt.Sprintf("%.4f", c.errEDP),
			lifetimeString(c.lifetime))
	}
	_, err := t.WriteTo(w)
	return err
}

// jsonPoint is one frontier point in the -json report. LifetimeYears is
// omitted (not +Inf, which JSON cannot carry) for volatile or effectively
// unlimited terminals.
type jsonPoint struct {
	Name          string   `json:"name"`
	CacheTech     string   `json:"cache_tech,omitempty"`
	CacheMB       uint64   `json:"cache_mb"`
	PageBytes     uint64   `json:"page_bytes,omitempty"`
	Assoc         int      `json:"assoc,omitempty"`
	MemTech       string   `json:"mem_tech"`
	PredNormEDP   float64  `json:"pred_norm_edp"`
	MeasNormEDP   float64  `json:"meas_norm_edp"`
	PredAMATNanos float64  `json:"pred_amat_ns"`
	MeasAMATNanos float64  `json:"meas_amat_ns"`
	RelErrAMAT    float64  `json:"relerr_amat"`
	RelErrEDP     float64  `json:"relerr_edp"`
	LifetimeYears *float64 `json:"lifetime_years,omitempty"`
}

// jsonReport is the -json output document.
type jsonReport struct {
	Screened          int         `json:"screened"`
	Skipped           int         `json:"skipped"`
	ScreenMicrosPt    float64     `json:"screen_us_per_point"`
	ReplayMillisPt    float64     `json:"replay_ms_per_point"`
	Frontier          []jsonPoint `json:"frontier"`
	MeanRelErrAMAT    float64     `json:"mean_relerr_amat"`
	ToleranceAMAT     float64     `json:"tolerance_amat"`
	ToleranceMeanAMAT float64     `json:"tolerance_mean_amat"`
}

func writeJSON(w *os.File, cands, frontier []*candidate, skipped int, screenWall, replayWall time.Duration, screenPts, replayPts int, meanErrAMAT float64) error {
	rep := jsonReport{
		Screened:          len(cands),
		Skipped:           skipped,
		ScreenMicrosPt:    float64(screenWall.Microseconds()) / float64(screenPts),
		ReplayMillisPt:    float64(replayWall.Milliseconds()) / float64(replayPts),
		MeanRelErrAMAT:    meanErrAMAT,
		ToleranceAMAT:     analytic.AMATTolerance,
		ToleranceMeanAMAT: analytic.MeanAMATTolerance,
	}
	for _, c := range frontier {
		p := jsonPoint{
			Name: c.name, CacheTech: c.cacheTech.Name, CacheMB: c.capMB,
			PageBytes: c.page, Assoc: c.assoc, MemTech: c.memTech.Name,
			PredNormEDP: c.predAvg.NormEDP, MeasNormEDP: c.measAvg.NormEDP,
			PredAMATNanos: c.predAvg.AMATNanos, MeasAMATNanos: c.measAvg.AMATNanos,
			RelErrAMAT: c.errAMAT, RelErrEDP: c.errEDP,
		}
		if !math.IsInf(c.lifetime, 1) {
			lt := c.lifetime
			p.LifetimeYears = &lt
		}
		rep.Frontier = append(rep.Frontier, p)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

func lifetimeString(years float64) string {
	if math.IsInf(years, 1) {
		return "unlimited"
	}
	return fmt.Sprintf("%.1f", years)
}

func relErr(pred, exact float64) float64 {
	if exact == 0 {
		if pred == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(pred-exact) / math.Abs(exact)
}

// parseUint parses one positive list element.
func parseUint(s string) (uint64, error) {
	v, err := strconv.ParseUint(s, 10, 64)
	if err == nil && v == 0 {
		err = errors.New("must be positive")
	}
	return v, err
}

// filterTechs restricts an axis to a comma-separated name subset (empty
// keeps the whole axis), erroring on names the axis does not contain.
func filterTechs(name string, axis []tech.Tech, csv string) ([]tech.Tech, error) {
	if csv == "" {
		return axis, nil
	}
	return cli.ParseList(name, csv, func(techName string) (tech.Tech, error) {
		for _, t := range axis {
			if t.Name == techName {
				return t, nil
			}
		}
		return tech.Tech{}, fmt.Errorf("technology not on this axis %v", techNames(axis))
	})
}

func techNames(ts []tech.Tech) []string {
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = t.Name
	}
	return out
}
