// Command tco compares designs on total cost of ownership — the dimension
// the paper defers ("We have not factored in the cost (e.g. total cost of
// ownership)"). Capital cost covers every memory module; energy cost runs
// the modelled average power over a deployment lifetime.
//
// Usage:
//
//	tco -workload Hashing
//	tco -workload CG -years 3 -kwh 0.20
//
// Capacities are evaluated at the co-scaled sizes; capital costs therefore
// compare designs relatively rather than pricing a production node.
package main

import (
	"flag"
	"fmt"
	"os"

	"hybridmem/internal/cli"
	"hybridmem/internal/core"
	"hybridmem/internal/cost"
	"hybridmem/internal/design"
	"hybridmem/internal/model"
	"hybridmem/internal/report"
)

func main() {
	c := cli.New("tco", cli.Scale|cli.Catalog)
	c.AddWorkload("Hashing")
	var (
		years = flag.Float64("years", 5, "deployment lifetime in years")
		kwh   = flag.Float64("kwh", 0.12, "electricity price, $/kWh")
		duty  = flag.Float64("duty", 0.7, "duty cycle (fraction of lifetime under load)")
	)
	c.Parse()

	_, wp, err := c.ProfileWorkload()
	c.Exit(err)

	params := cost.DefaultParams()
	params.LifetimeYears = *years
	params.EnergyDollarsPerKWh = *kwh
	params.DutyCycle = *duty

	mk := func(b design.Backend, err error) design.Backend {
		c.Exit(err)
		return b
	}
	backends := []design.Backend{
		c.Reg.Reference(wp.Footprint),
		mk(c.Reg.NMM("N6", "PCM", c.Scale, wp.Footprint)),
		mk(c.Reg.NMM("N6", "STTRAM", c.Scale, wp.Footprint)),
		mk(c.Reg.FourLC("EH1", "eDRAM", c.Scale, wp.Footprint)),
		mk(c.Reg.FourLCNVM("EH3", "eDRAM", "PCM", c.Scale, wp.Footprint)),
	}

	var labelled []cost.Labelled
	var evals []model.Evaluation
	for i, res := range wp.EvaluateFanout(c.Ctx, backends) {
		c.Exit(res.Err)
		// Module inventory: the shared SRAM prefix plus the back end.
		all := append(append([]core.LevelStats(nil), wp.Prefix...), res.Snap...)
		labelled = append(labelled, cost.Labelled{Label: backends[i].Name, Modules: all, Eval: res.Eval})
		evals = append(evals, res.Eval)
	}

	tcos, err := cost.CompareAll(params, labelled)
	c.Exit(err)

	t := &report.Table{
		Title:   fmt.Sprintf("%s: TCO over %.0f years at $%.2f/kWh (duty %.0f%%)", c.Workload, *years, *kwh, *duty*100),
		Headers: []string{"design", "norm time", "norm energy", "capex $", "energy $", "total $", "vs reference"},
	}
	base := tcos[0].TotalUSD()
	for i, l := range labelled {
		t.AddRow(l.Label,
			fmt.Sprintf("%.4f", evals[i].NormTime),
			fmt.Sprintf("%.4f", evals[i].NormEnergy),
			fmt.Sprintf("%.2f", tcos[i].CapexUSD),
			fmt.Sprintf("%.4f", tcos[i].EnergyUSD),
			fmt.Sprintf("%.2f", tcos[i].TotalUSD()),
			report.Pct(tcos[i].TotalUSD()/base))
	}
	_, err = t.WriteTo(os.Stdout)
	c.Exit(err)
}
