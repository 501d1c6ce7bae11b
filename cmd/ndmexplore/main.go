// Command ndmexplore prints the NDM oracle's full placement exploration:
// for each workload, every candidate address-range placement with its
// profiled traffic and modelled outcome, marking the placement the figures
// use. This reproduces the paper's Section V NDM methodology discussion
// ("typically we found 2 or 3 address ranges in each workload ... we placed
// an address range to NVM at a time, and the rest to DRAM").
//
// ndmexplore and cmd/explore split the design space between them: explore
// screens uniform and cached memory systems analytically (microseconds per
// point, from reuse sketches) and promotes only its Pareto frontier to exact
// replay, while ndmexplore stays replay-based throughout, because address-
// range (NDM) placement depends on which addresses are hot — information a
// reuse-distance sketch deliberately discards. The analytic predictor
// refuses Partitioned designs with a typed *analytic.UnsupportedError for
// the same reason; this command is the exact path for that family.
//
// Usage:
//
//	ndmexplore                       # PCM, all workloads
//	ndmexplore -nvm STTRAM -workloads BT,Velvet
package main

import (
	"flag"
	"fmt"
	"os"

	"hybridmem/internal/cli"
	"hybridmem/internal/exp"
	"hybridmem/internal/ndm"
	"hybridmem/internal/report"
)

func main() {
	c := cli.New("ndmexplore", cli.NVM|cli.Scale|cli.Workloads)
	dynamic := flag.Bool("dynamic", false, "also run the epoch-based dynamic partitioning (the paper's future work)")
	c.Parse()

	fmt.Fprintln(os.Stderr, "profiling workloads...")
	s, err := exp.NewSuite(c.ExpConfig())
	c.Exit(err)

	results, row, err := s.NDM(c.NVM)
	c.Exit(err)

	for _, res := range results {
		t := &report.Table{
			Title:   fmt.Sprintf("%s: NDM placements on %s", res.Workload, c.NVM.Name),
			Headers: []string{"placement", "NVM bytes", "NVM loads", "NVM stores", "norm time", "norm energy", "norm EDP", ""},
		}
		for i, p := range res.Placements {
			loads, stores, _, _ := p.Traffic()
			mark := ""
			if i == res.Chosen {
				mark = "<= figure"
			}
			ev := res.Evals[i]
			t.AddRow(p.Label,
				fmt.Sprintf("%.1f MB", float64(p.NVMBytes())/(1<<20)),
				fmt.Sprintf("%d", loads), fmt.Sprintf("%d", stores),
				fmt.Sprintf("%.4f", ev.NormTime),
				fmt.Sprintf("%.4f", ev.NormEnergy),
				fmt.Sprintf("%.4f", ev.NormEDP),
				mark)
		}
		_, err = t.WriteTo(os.Stdout)
		c.Exit(err)
		fmt.Println()
	}
	fmt.Printf("figure row (%s): avg norm time %.4f, avg norm energy %.4f\n",
		row.Label, row.Avg.NormTime, row.Avg.NormEnergy)

	if *dynamic {
		dyn, err := s.DynamicNDM(c.NVM, ndm.DynamicConfig{})
		c.Exit(err)
		fmt.Println()
		t := &report.Table{
			Title:   fmt.Sprintf("dynamic partitioning on %s (epoch-based, hotness-ranked)", c.NVM.Name),
			Headers: []string{"workload", "norm time", "norm energy", "NVM share", "epochs", "migrated"},
		}
		for i, ev := range dyn.PerWorkload {
			res := dyn.Results[i]
			t.AddRow(ev.Workload,
				fmt.Sprintf("%.4f", ev.NormTime),
				fmt.Sprintf("%.4f", ev.NormEnergy),
				fmt.Sprintf("%.1f%%", res.NVMShare*100),
				fmt.Sprint(res.Epochs),
				fmt.Sprintf("%.1f MB", float64(res.MigratedBytes)/(1<<20)))
		}
		_, err = t.WriteTo(os.Stdout)
		c.Exit(err)
		fmt.Printf("dynamic avg: time %.4f, energy %.4f (static oracle: %.4f, %.4f)\n",
			dyn.Avg.NormTime, dyn.Avg.NormEnergy, row.Avg.NormTime, row.Avg.NormEnergy)
	}
}
