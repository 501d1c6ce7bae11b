// Command sweep runs full design-space sweeps (every Table 2/3
// configuration across every workload and technology choice) and emits the
// results as CSV for downstream plotting.
//
// Usage:
//
//	sweep -design nmm                 # N1-N9 x {PCM,STTRAM,FeRAM}
//	sweep -design 4lc                 # EH1-EH8 x {eDRAM,HMC}
//	sweep -design 4lcnvm              # EH1-EH8 x {eDRAM,HMC} x {PCM,...}
//	sweep -design ndm                 # oracle placements x {PCM,...}
//	sweep -design all                 # everything
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"hybridmem/internal/design"
	"hybridmem/internal/exp"
	"hybridmem/internal/model"
	"hybridmem/internal/obs"
	"hybridmem/internal/report"
	"hybridmem/internal/tech"
)

func main() {
	var (
		dsgn      = flag.String("design", "all", "design family: nmm, 4lc, 4lcnvm, ndm, all")
		scale     = flag.Uint64("scale", design.DefaultScale, "capacity co-scaling divisor")
		catalogF  = flag.String("catalog", "", "technology catalog file (hybridmem-catalog/1 JSON; empty = builtin Table 1; see FORMATS.md)")
		exts      = flag.Bool("extensions", false, "also sweep post-2014 extension technologies on each axis")
		workloads = flag.String("workloads", "", "comma-separated workload subset")
		workers   = flag.Int("workers", 0, "replay worker bound; same-workload design points within the bound share each block decode (0 = GOMAXPROCS)")

		epoch      = flag.Uint64("epoch", 0, "sample an epoch time-series every N references while profiling workloads (0 = off)")
		timeseries = flag.String("timeseries", "", `write the profiling epoch time-series as long-form CSV here ("-" = stderr; stdout carries the sweep CSV)`)
		runlog     = flag.String("runlog", "", `write structured JSONL run events here ("-" = stderr)`)
	)
	var prof obs.Profile
	prof.RegisterFlags(flag.CommandLine)
	flag.Parse()

	stopProf, err := prof.Start()
	exitOn(err)
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "sweep:", err)
		}
	}()

	logw, closeLog, err := obs.OpenSink(*runlog, os.Stderr)
	exitOn(err)
	defer closeLog()
	logger := obs.NewLogger(logw)
	ctx, _, stages := obs.NewRunContext(context.Background())
	runStart := time.Now()
	logger.EventCtx(ctx, "run_start", obs.Fields{
		"cmd": "sweep", "design": *dsgn, "scale": *scale,
		"workloads": *workloads, "epoch": *epoch,
	})

	if *timeseries != "" && *epoch == 0 {
		*epoch = obs.DefaultEpochRefs
	}
	cat, err := tech.LoadCatalogOrBuiltin(*catalogF)
	exitOn(err)
	cfg := exp.Config{Scale: *scale, Workers: *workers, Epoch: *epoch, Catalog: cat, Log: logger, Ctx: ctx}
	if *workloads != "" {
		cfg.Workloads = strings.Split(*workloads, ",")
	}
	fmt.Fprintln(os.Stderr, "profiling workloads...")
	s, err := exp.NewSuite(cfg)
	exitOn(err)
	exitOn(emitTimeSeries(*timeseries, s))

	fmt.Println("design,config,tech,workload,norm_time,norm_energy,norm_edp,amat_ns,dynamic_j,static_j")

	// Paper-default axes come from the catalog (identical to the hardcoded
	// Table 1 sets for the builtin); -extensions widens each axis to every
	// catalog entry of the class, including post-2014 additions.
	nvms, llcs := cat.NVMs(), cat.LLCs()
	if *exts {
		nvms, llcs = cat.Class(tech.ClassNVM), cat.Class(tech.ClassLLC)
	}

	run := func(family string) {
		done := logger.Span("family_sweep", obs.Fields{"family": family})
		defer done(nil)
		switch family {
		case "nmm":
			for _, nvm := range nvms {
				rows, err := s.NMM(nvm)
				exitOn(err)
				emit("NMM", nvm.Name, s, rows)
			}
		case "4lc":
			for _, llc := range llcs {
				rows, err := s.FourLC(llc)
				exitOn(err)
				emit("4LC", llc.Name, s, rows)
			}
		case "4lcnvm":
			for _, llc := range llcs {
				for _, nvm := range nvms {
					rows, err := s.FourLCNVM(llc, nvm)
					exitOn(err)
					emit("4LCNVM", llc.Name+"+"+nvm.Name, s, rows)
				}
			}
		case "ndm":
			for _, nvm := range nvms {
				results, _, err := s.NDM(nvm)
				exitOn(err)
				for _, res := range results {
					for i, ev := range res.Evals {
						label := res.Placements[i].Label
						if i == res.Chosen {
							label += "*"
						}
						emitOne("NDM", label, nvm.Name, res.Workload, ev)
					}
				}
			}
		default:
			exitOn(fmt.Errorf("unknown design family %q", family))
		}
	}

	if *dsgn == "all" {
		for _, f := range []string{"nmm", "4lc", "4lcnvm", "ndm"} {
			run(f)
		}
	} else {
		run(*dsgn)
	}

	end := obs.Fields{
		"cmd":            "sweep",
		"wall_ms":        float64(time.Since(runStart)) / float64(time.Millisecond),
		"refs_processed": obs.RefsProcessed(),
	}
	for k, v := range stages.Fields() {
		end[k] = v
	}
	logger.EventCtx(ctx, "run_end", end)
}

// emitTimeSeries writes the long-form epoch CSV (one row per
// workload/epoch/level) collected during suite profiling to the -timeseries
// destination. "-" means stderr: stdout carries the sweep CSV, and the two
// must not interleave.
func emitTimeSeries(path string, s *exp.Suite) error {
	if path == "" {
		return nil
	}
	w, closeTS, err := obs.OpenSink(path, os.Stderr)
	if err != nil {
		return err
	}
	if w == nil {
		return nil
	}
	for i, wp := range s.Profiles {
		if wp.Series == nil {
			continue
		}
		if err := report.WriteEpochLongCSV(w, wp.Name, wp.Series, i == 0); err != nil {
			closeTS()
			return err
		}
	}
	return closeTS()
}

func emit(family, techName string, s *exp.Suite, rows []exp.Row) {
	for _, row := range rows {
		for i, ev := range row.PerWorkload {
			emitOne(family, row.Label, techName, s.Profiles[i].Name, ev)
		}
		emitOne(family, row.Label, techName, "AVERAGE", row.Avg)
	}
}

func emitOne(family, config, techName, workload string, ev model.Evaluation) {
	fmt.Printf("%s,%s,%s,%s,%.6f,%.6f,%.6f,%.4f,%.6f,%.6f\n",
		family, config, techName, workload,
		ev.NormTime, ev.NormEnergy, ev.NormEDP, ev.AMATNanos, ev.DynamicJ, ev.StaticJ)
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
}
