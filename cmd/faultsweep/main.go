// Command faultsweep sweeps NVM design points against injected device-fault
// rates: every Table 3 configuration (N1-N9) of the NMM design — and
// optionally the NDM write-aware placement, which can gracefully remap
// retired pages into its DRAM partition — is replayed under the seeded
// fault model of package fault at each requested bit-error rate.
//
// The output reports, per (configuration, error rate), both the paper's
// normalized metrics and the fault model's outcomes: ECC-corrected errors,
// detected-uncorrectable errors, wear-induced stuck lines, retired pages,
// and remapped accesses. Runs are deterministic: the same -seed reproduces
// identical fault statistics.
//
// Usage:
//
//	faultsweep                                   # Graph500 x N1-N9 x default BERs
//	faultsweep -workload BT -nvm STTRAM
//	faultsweep -bers 1e-12,1e-10,1e-8 -seed 7
//	faultsweep -endurance 50000                  # add wear-driven stuck-at faults
//	faultsweep -csv > sweep.csv
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"

	"hybridmem/internal/cli"
	"hybridmem/internal/design"
	"hybridmem/internal/exp"
	"hybridmem/internal/fault"
	"hybridmem/internal/ndm"
	"hybridmem/internal/obs"
	"hybridmem/internal/report"
)

func main() {
	c := cli.New("faultsweep", cli.NVM|cli.Catalog|cli.Scale|cli.WorkloadScale|cli.Iters|cli.Workers|cli.RunLog)
	c.AddWorkload("Graph500")
	var (
		bers      = flag.String("bers", "0,1e-12,1e-10,1e-8", "comma-separated bit-error rates to sweep")
		endurance = flag.Uint64("endurance", 0, "mean per-line write endurance before stuck-at faults (0 = off)")
		seed      = flag.Uint64("seed", 1, "fault-injection seed (same seed = identical statistics)")
		withNDM   = flag.Bool("ndm", true, "include the NDM write-aware placement (retired pages remap to DRAM)")
		csv       = flag.Bool("csv", false, "emit CSV instead of an aligned table")
	)
	c.Parse()
	rates, err := cli.ParseList("bers", *bers, func(b string) (float64, error) {
		v, err := strconv.ParseFloat(b, 64)
		if err == nil && (v < 0 || v >= 1) {
			err = fmt.Errorf("bit-error rate %g out of [0, 1)", v)
		}
		return v, err
	})
	if err == nil && len(rates) == 0 {
		err = errors.New("no bit-error rates given")
	}
	c.Exit(err)
	c.Exit(c.Start())

	_, wp, err := c.ProfileWorkload(0)
	c.Exit(err)

	backends := []design.Backend{}
	for _, cfg := range design.NConfigs {
		backends = append(backends, c.Reg.NMMWith(cfg, c.NVM, c.Scale, wp.Footprint))
	}
	if *withNDM {
		cands := ndm.Candidates(wp.Regions, 0, 3)
		profiled, _ := ndm.Profile(cands, wp.Boundary)
		p := ndm.WriteAwarePlacement(profiled, design.NDMDRAMCapacity/c.Scale)
		b, err := c.Reg.NDM(c.NVM.Name, p.NVMRanges(), p.NVMBytes(), wp.Footprint, "write-aware")
		c.Exit(err)
		backends = append(backends, b)
	}

	// The whole (configuration x error-rate) grid replays one workload's
	// boundary stream, so RunJobs folds it into shared-decode fan-out
	// chunks: each packed block is decoded once per chunk of up to -workers
	// design points instead of once per grid cell.
	var jobs []exp.Job
	var jobBERs []float64
	for _, b := range backends {
		for _, ber := range rates {
			jobs = append(jobs, exp.Job{WP: wp, B: b.WithFault(fault.Config{
				Seed:            *seed,
				BitErrorRate:    ber,
				EnduranceWrites: *endurance,
			})})
			jobBERs = append(jobBERs, ber)
		}
	}
	evs, err := exp.RunJobs(c.Ctx, jobs, c.Workers)
	c.Exit(err)
	c.Finish(obs.Fields{"workload": c.Workload, "grid": len(jobs)})
	if *csv {
		fmt.Println("design,workload,ber,endurance,seed,norm_time,norm_energy,norm_edp," +
			"accesses,corrected,uncorrected,stuck_lines,retired_pages,remapped,uncorr_rate")
		for i, ev := range evs {
			s := ev.Fault
			fmt.Printf("%s,%s,%g,%d,%d,%.6f,%.6f,%.6f,%d,%d,%d,%d,%d,%d,%.6e\n",
				ev.Design, ev.Workload, jobBERs[i], *endurance, *seed,
				ev.NormTime, ev.NormEnergy, ev.NormEDP,
				s.Accesses, s.Corrected, s.Uncorrected, s.StuckLines,
				s.RetiredPages, s.Remapped, s.UncorrectedRate())
		}
		return
	}
	for i := range evs {
		evs[i].Design = fmt.Sprintf("%s@ber=%g", evs[i].Design, jobBERs[i])
	}
	t := report.FaultTable(
		fmt.Sprintf("device-fault sweep: %s on %s (seed %d, endurance %d)",
			c.Workload, c.NVM.Name, *seed, *endurance),
		evs)
	_, err = t.WriteTo(os.Stdout)
	c.Exit(err)
}
