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
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"hybridmem/internal/cli"
	"hybridmem/internal/exp"
	"hybridmem/internal/model"
	"hybridmem/internal/obs"
	"hybridmem/internal/tech"
)

func main() {
	c := cli.New("sweep", cli.Scale|cli.WorkloadScale|cli.Catalog|cli.Workloads|cli.Workers|cli.Epoch|cli.RunLog|cli.Profile)
	var (
		dsgn = flag.String("design", "all", "design family: nmm, 4lc, 4lcnvm, ndm, all")
		exts = flag.Bool("extensions", false, "also sweep post-2014 extension technologies on each axis")
	)
	c.Parse()
	families := []string{"nmm", "4lc", "4lcnvm", "ndm"}
	if *dsgn != "all" {
		if !slices.Contains(families, *dsgn) {
			c.Exit(fmt.Errorf("unknown design family %q (nmm, 4lc, 4lcnvm, ndm, all)", *dsgn))
		}
		families = []string{*dsgn}
	}
	c.Exit(c.Start())

	fmt.Fprintln(os.Stderr, "profiling workloads...")
	s, err := exp.NewSuite(c.ExpConfig())
	c.Exit(err)
	c.Exit(c.EmitTimeSeries(cli.SuiteSeries(s)))

	fmt.Println("design,config,tech,workload,norm_time,norm_energy,norm_edp,amat_ns,dynamic_j,static_j")

	// Paper-default axes come from the catalog (the Table 1 sets for the
	// builtin); -extensions widens each axis to every catalog entry of the
	// class, including post-2014 additions.
	nvms, llcs := c.Cat.NVMs(), c.Cat.LLCs()
	if *exts {
		nvms, llcs = c.Cat.Class(tech.ClassNVM), c.Cat.Class(tech.ClassLLC)
	}

	// Every requested grid family runs through one RunJobs call, so the
	// design points that share a cache geometry across technologies share
	// one replay per workload; rows print family by family as before.
	var sets []exp.RowSet
	var techNames []string
	var grid []string
	for _, f := range families {
		switch f {
		case "nmm":
			for _, nvm := range nvms {
				sets = append(sets, exp.RowSet{Family: exp.FamilyNMM, NVM: nvm})
				techNames = append(techNames, nvm.Name)
			}
		case "4lc":
			for _, llc := range llcs {
				sets = append(sets, exp.RowSet{Family: exp.Family4LC, LLC: llc})
				techNames = append(techNames, llc.Name)
			}
		case "4lcnvm":
			for _, llc := range llcs {
				for _, nvm := range nvms {
					sets = append(sets, exp.RowSet{Family: exp.Family4LCNVM, LLC: llc, NVM: nvm})
					techNames = append(techNames, llc.Name+"+"+nvm.Name)
				}
			}
		default:
			continue
		}
		grid = append(grid, f)
	}
	if len(sets) > 0 {
		done := c.Log.Span("family_sweep", obs.Fields{"family": strings.Join(grid, ",")})
		rowSets, err := s.Rows(sets)
		c.Exit(err)
		done(nil)
		for i, rows := range rowSets {
			emit(sets[i].Family, techNames[i], s, rows)
		}
	}
	if slices.Contains(families, "ndm") {
		done := c.Log.Span("family_sweep", obs.Fields{"family": "ndm"})
		for _, nvm := range nvms {
			results, _, err := s.NDM(nvm)
			c.Exit(err)
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
		done(nil)
	}
	c.Finish(nil)
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
