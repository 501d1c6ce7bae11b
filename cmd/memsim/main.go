// Command memsim runs one workload on one memory-hierarchy design point and
// prints per-level statistics plus the modelled performance and energy.
//
// Usage:
//
//	memsim -workload CG -design reference
//	memsim -workload BT -design nmm -config N6 -nvm PCM
//	memsim -workload Graph500 -design 4lc -config EH1 -llc HMC
//	memsim -workload Velvet -design 4lcnvm -config EH3 -llc eDRAM -nvm STTRAM
//
// Observability (see the README's Observability section):
//
//	memsim -workload Graph500 -design nmm -config N6 -epoch 1000000 -timeseries -
//	memsim -workload CG -design nmm -runlog run.jsonl -cpuprofile cpu.pprof
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"hybridmem/internal/cli"
	"hybridmem/internal/core"
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
	c := cli.New("memsim", cli.Config|cli.LLC|cli.NVM|cli.Scale|cli.Iters|cli.Dilution|cli.Epoch|cli.RunLog|cli.Profile)
	c.AddWorkload("CG")
	c.AddDesign("reference")
	var (
		list      = flag.Bool("list", false, "list workloads and configurations")
		breakdown = flag.Bool("breakdown", false, "print the per-level energy/time attribution")
		rowbuf    = flag.Bool("rowbuffer", false, "use the open-page row-buffer timing model for main memory")
	)
	c.Parse()
	if *list {
		fmt.Println("workloads:", catalog.Names)
		fmt.Print("4LC/4LCNVM configs:")
		for _, cfg := range design.EHConfigs {
			fmt.Printf(" %s", cfg.Name)
		}
		fmt.Print("\nNMM configs:")
		for _, cfg := range design.NConfigs {
			fmt.Printf(" %s", cfg.Name)
		}
		fmt.Println("\ntechnologies: -llc", techNames(c.Cat.Class(tech.ClassLLC)),
			"-nvm", techNames(c.Cat.Class(tech.ClassNVM)))
		return
	}
	c.Exit(c.Start())

	if c.Dilution == 0 {
		c.Dilution = exp.DefaultDilution
	}
	w, wp, err := c.ProfileWorkload(c.Dilution)
	c.Exit(err)

	backend, err := c.Backend(wp.Footprint)
	c.Exit(err)
	if *rowbuf {
		backend = backend.WithRowBuffer()
	}

	ev, err := wp.EvaluateCtx(c.Ctx, backend)
	c.Exit(err)

	// Re-run the backend once more to show per-level statistics (the
	// evaluation consumed its own instance).
	stopStats := obs.TimeStage(c.Ctx, "stats_replay")
	built, err := backend.Build()
	c.Exit(err)
	built.Replay(wp.Boundary)
	stopStats()

	t := &report.Table{
		Title:   fmt.Sprintf("%s on %s", wp.Name, backend.Name),
		Headers: []string{"level", "tech", "capacity", "loads", "stores", "hit rate", "writebacks"},
	}
	for _, l := range append(append([]core.LevelStats(nil), wp.Prefix...), built.Snapshot()...) {
		t.AddRow(l.Name, l.Tech.Name, fmt.Sprintf("%.1f KB", float64(l.Capacity)/1024),
			fmt.Sprint(l.Stats.Loads), fmt.Sprint(l.Stats.Stores),
			fmt.Sprintf("%.2f%%", l.Stats.HitRate()*100), fmt.Sprint(l.Stats.WriteBacks))
	}
	_, err = t.WriteTo(os.Stdout)
	c.Exit(err)

	fmt.Println()
	printEval("reference", wp.ReferenceEvaluation())
	printEval(backend.Name, ev)
	fmt.Printf("\nnormalized: time %.4f (%s), energy %.4f (%s), EDP %.4f (%s)\n",
		ev.NormTime, report.Pct(ev.NormTime),
		ev.NormEnergy, report.Pct(ev.NormEnergy),
		ev.NormEDP, report.Pct(ev.NormEDP))

	if *breakdown {
		profile := model.Merge(
			model.Profile{Levels: wp.Prefix, TotalRefs: wp.TotalRefs},
			model.Profile{Levels: built.Snapshot()},
		)
		bt := &report.Table{
			Title:   "per-level attribution",
			Headers: []string{"level", "dynamic J", "static J", "AMAT share (ns)"},
		}
		for _, le := range profile.Breakdown(ev.RuntimeSec) {
			bt.AddRow(le.Name,
				fmt.Sprintf("%.6f", le.DynamicJ),
				fmt.Sprintf("%.6f", le.StaticJ),
				fmt.Sprintf("%.4f", le.TimeShareNS))
		}
		fmt.Println()
		_, err = bt.WriteTo(os.Stdout)
		c.Exit(err)
	}

	if c.Epoch > 0 {
		c.Exit(timeSeries(c, w, backend))
	}
	c.Finish(obs.Fields{"workload": c.Workload, "design": backend.Name})
}

// timeSeries re-runs the workload online through the full hierarchy (SRAM
// prefix + the design's back end) under an epoch sampler, then renders the
// per-epoch CSV to the -timeseries destination and an ASCII heat-strip to
// stdout.
func timeSeries(c *cli.Cmd, w workload.Workload, backend design.Backend) error {
	prefix, err := c.Reg.BuildPrefix(c.Scale)
	if err != nil {
		return err
	}
	h, err := backend.BuildHierarchy(prefix)
	if err != nil {
		return err
	}
	sampler := obs.NewEpochSampler(h, c.Epoch)
	done := c.Log.Span("timeseries_sim", obs.Fields{
		"workload": w.Name(), "design": backend.Name, "epoch": c.Epoch,
	})
	start := time.Now()
	w.Run(sampler)
	sampler.Flush()
	done(obs.ThroughputFields(h.Refs(), time.Since(start)))

	series := sampler.Series()
	if err := c.EmitTimeSeries(func(tsw io.Writer) error { return report.WriteEpochCSV(tsw, series) }); err != nil {
		return err
	}
	fmt.Println()
	return report.EpochHeatStrip(os.Stdout, series)
}

// techNames lists the technologies' names.
func techNames(ts []tech.Tech) []string {
	names := make([]string, len(ts))
	for i, t := range ts {
		names[i] = t.Name
	}
	return names
}

func printEval(label string, ev model.Evaluation) {
	fmt.Printf("%-24s AMAT %6.3f ns, runtime %8.3f s, dynamic %8.4f J, static %8.4f J, EDP %10.4f Js\n",
		label, ev.AMATNanos, ev.RuntimeSec, ev.DynamicJ, ev.StaticJ, ev.EDP)
}
