// Command paperrepro regenerates every table and figure of "Evaluation of
// emerging memory technologies for HPC, data intensive applications"
// (CLUSTER 2014).
//
// Usage:
//
//	paperrepro -all                 # every table and figure
//	paperrepro -table 1             # one table (1-4)
//	paperrepro -figure 2            # one figure (1-10)
//	paperrepro -figure 5 -llc HMC   # 4LCNVM with HMC instead of eDRAM
//	paperrepro -scale 16            # finer co-scaling (slower, more exact)
//	paperrepro -workloads BT,CG     # workload subset
//	paperrepro -csv                 # CSV instead of aligned tables
//	paperrepro -figure 9 -mults 1,3,9,27   # custom heat-map multiplier axis
//
// Figures that share simulation runs (1&2, 3&4, 5&6, 7&8, 9&10) are
// computed from the same sweep; requesting either regenerates the pair's
// data and prints the requested metric. Figures 9 and 10 are heat maps of
// normalized NMM runtime and energy over main-memory read/write latency
// and energy multipliers (-mults sets both axes); without -csv they are
// also rendered as ASCII shading.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"time"

	"hybridmem/internal/cli"
	"hybridmem/internal/design"
	"hybridmem/internal/exp"
	"hybridmem/internal/model"
	"hybridmem/internal/obs"
	"hybridmem/internal/report"
	"hybridmem/internal/tech"
	"hybridmem/internal/workload"
	"hybridmem/internal/workload/catalog"
)

func main() {
	c := cli.New("paperrepro", cli.Scale|cli.Workloads|cli.LLC|cli.NVM|cli.Catalog|
		cli.Dilution|cli.Workers|cli.Epoch|cli.RunLog|cli.Profile)
	var (
		all    = flag.Bool("all", false, "regenerate every table and figure")
		table  = flag.Int("table", 0, "regenerate one table (1-4)")
		figure = flag.Int("figure", 0, "regenerate one figure (1-10)")
		csv    = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		mults  = flag.String("mults", "", "comma-separated multipliers for both heat-map axes of figures 9-10 (default 1,2,5,10,20)")
	)
	c.Parse()
	if !*all && *table == 0 && *figure == 0 {
		flag.Usage()
		os.Exit(2)
	}
	axis, err := cli.ParseList("mults", *mults, func(m string) (float64, error) { return strconv.ParseFloat(m, 64) })
	c.Exit(err)
	c.Exit(c.Start())

	r := &runner{c: c, cfg: c.ExpConfig(), csv: *csv, mults: axis}
	switch {
	case *all:
		for t := 1; t <= 4; t++ {
			c.Exit(r.run("table", t, r.table))
		}
		for f := 1; f <= 10; f++ {
			c.Exit(r.run("figure", f, r.figure))
		}
	case *table != 0:
		c.Exit(r.run("table", *table, r.table))
	default:
		c.Exit(r.run("figure", *figure, r.figure))
	}
	c.Finish(nil)
}

// runner caches the profiled suite across multiple tables/figures.
type runner struct {
	c     *cli.Cmd
	cfg   exp.Config
	csv   bool
	mults []float64
	suite *exp.Suite

	// cached sweep rows and title labels, by figure pair (see sweep).
	rows   [4][]exp.Row
	labels [4]string
}

// Suite lazily profiles the workloads; on first profiling it also emits the
// per-workload epoch time-series when -timeseries was requested.
func (r *runner) Suite() (*exp.Suite, error) {
	if r.suite == nil {
		start := time.Now()
		fmt.Fprintf(os.Stderr, "profiling workloads (scale %d)...\n", r.cfg.Scale)
		s, err := exp.NewSuite(r.cfg)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "profiled %d workloads in %s\n", len(s.Profiles), time.Since(start).Round(time.Millisecond))
		r.suite = s
		if err := r.c.EmitTimeSeries(cli.SuiteSeries(s)); err != nil {
			return nil, err
		}
	}
	return r.suite, nil
}

// run regenerates one table or figure inside a logging span.
func (r *runner) run(kind string, n int, gen func(int) error) error {
	done := r.c.Log.Span(kind, obs.Fields{"n": n})
	err := gen(n)
	done(obs.Fields{"ok": err == nil})
	return err
}

// emit renders a table as text or CSV.
func (r *runner) emit(t *report.Table) error {
	if r.csv {
		return t.WriteCSV(os.Stdout)
	}
	_, err := t.WriteTo(os.Stdout)
	fmt.Println()
	return err
}

// table regenerates Tables 1-4.
func (r *runner) table(n int) error {
	switch n {
	case 1:
		t := &report.Table{
			Title:   "Table 1: Characteristics of different memory technologies",
			Headers: []string{"Memory Technology", "Read delay (ns)", "Write delay (ns)", "Read energy (pJ/bit)", "Write energy (pJ/bit)", "Static power (W/GB)"},
		}
		// Catalog entry order is Table 1's row order; the SRAM cache levels
		// and post-2014 extensions are not part of the paper's table.
		for _, e := range r.cfg.Catalog.Entries() {
			if e.Class == tech.ClassSRAM || e.Extension {
				continue
			}
			tc := e.Tech
			t.AddRow(tc.Name,
				fmt.Sprintf("%g", tc.ReadNS), fmt.Sprintf("%g", tc.WriteNS),
				fmt.Sprintf("%g", tc.ReadPJPerBit), fmt.Sprintf("%g", tc.WritePJPerBit),
				fmt.Sprintf("%g", tc.StaticWPerGB))
		}
		return r.emit(t)
	case 2:
		t := &report.Table{
			Title:   "Table 2: eDRAM/HMC configurations (capacity per core)",
			Headers: []string{"Design name", "eDRAM capacity (MB)", "Page size (B)"},
		}
		for _, c := range design.EHConfigs {
			t.AddRow(c.Name, fmt.Sprintf("%d", c.Capacity>>20), fmt.Sprintf("%d", c.PageSize))
		}
		return r.emit(t)
	case 3:
		t := &report.Table{
			Title:   "Table 3: NMM configurations (capacity per core)",
			Headers: []string{"Design name", "DRAM capacity (MB)", "Page size (B)"},
		}
		for _, c := range design.NConfigs {
			t.AddRow(c.Name, fmt.Sprintf("%d", c.Capacity>>20), fmt.Sprintf("%d", c.PageSize))
		}
		return r.emit(t)
	case 4:
		t := &report.Table{
			Title:   "Table 4: Characteristics of the benchmarks",
			Headers: []string{"Suite", "Benchmark", "Footprint/core (scaled)", "Ref time (s)", "Simulated refs", "Boundary refs"},
		}
		s, err := r.Suite()
		if err != nil {
			return err
		}
		for _, wp := range s.Profiles {
			w, err := catalog.New(wp.Name, workload.Options{Scale: r.cfg.WorkloadScale})
			if err != nil {
				return err
			}
			t.AddRow(w.Suite(), wp.Name,
				fmt.Sprintf("%.1f MB", float64(wp.Footprint)/(1<<20)),
				fmt.Sprintf("%.1f", wp.RefTime.Seconds()),
				fmt.Sprintf("%d", wp.TotalRefs),
				fmt.Sprintf("%d", wp.Boundary.Len()))
		}
		return r.emit(t)
	default:
		return fmt.Errorf("unknown table %d (1-4)", n)
	}
}

// suiteNames returns the configured workload names.
func (r *runner) suiteNames() []string {
	if len(r.cfg.Workloads) > 0 {
		return r.cfg.Workloads
	}
	return catalog.Names
}

// metric selectors for the paired figures.
func normTime(e model.Evaluation) float64   { return e.NormTime }
func normEnergy(e model.Evaluation) float64 { return e.NormEnergy }

// figure regenerates Figures 1-10. Figures 2k-1 and 2k plot run time and
// energy from one cached sweep.
func (r *runner) figure(n int) error {
	if n < 1 || n > 10 {
		return fmt.Errorf("unknown figure %d (1-10)", n)
	}
	s, err := r.Suite()
	if err != nil {
		return err
	}
	if n >= 9 {
		heatmap := s.LatencyHeatmap
		if n == 10 {
			heatmap = s.EnergyHeatmap
		}
		hm, err := heatmap(r.mults, r.mults)
		if err != nil {
			return err
		}
		if err := r.emit(report.HeatmapTable(hm)); err != nil || r.csv {
			return err
		}
		return report.HeatmapShade(hm, os.Stdout)
	}
	pair := (n - 1) / 2
	if r.rows[pair] == nil {
		if r.rows[pair], r.labels[pair], err = r.sweep(s, pair); err != nil {
			return err
		}
	}
	metric, what := normTime, "run time"
	if n%2 == 0 {
		metric, what = normEnergy, "energy"
	}
	title := fmt.Sprintf("Figure %d: normalized %s, %s", n, what, r.labels[pair])
	return r.emit(report.FigureTable(title, r.rows[pair], r.suiteNames(), metric))
}

// sweep runs the design sweep behind one figure pair (0 = NMM, 1 = 4LC,
// 2 = 4LCNVM, 3 = NDM) and returns its rows and title label.
func (r *runner) sweep(s *exp.Suite, pair int) ([]exp.Row, string, error) {
	llc, nvm := r.c.LLC, r.c.NVM
	switch pair {
	case 0:
		rows, err := s.NMM(nvm)
		return rows, fmt.Sprintf("NMM (%s)", nvm.Name), err
	case 1:
		rows, err := s.FourLC(llc)
		return rows, fmt.Sprintf("4LC (%s)", llc.Name), err
	case 2:
		rows, err := s.FourLCNVM(llc, nvm)
		return rows, fmt.Sprintf("4LCNVM (%s+%s)", llc.Name, nvm.Name), err
	}
	var rows []exp.Row
	for _, nvm := range r.cfg.Catalog.NVMs() {
		_, row, err := s.NDM(nvm)
		if err != nil {
			return nil, "", err
		}
		rows = append(rows, row)
	}
	return rows, "NDM (oracle placement)", nil
}
