// Command wearsim extends the paper along its stated future work: it
// quantifies NVM wear ("We have not factored in ... wearing, which is
// typical of NVM") for the NMM design, with and without Start-Gap wear
// leveling (the paper's reference [12]).
//
// It runs a workload through the reference SRAM prefix and an NMM back end
// whose NVM terminal tracks per-frame write counts, then reports the write
// imbalance and the projected device lifetime under the technology's
// endurance budget.
//
// Usage:
//
//	wearsim -workload Velvet                  # write-heavy worst case
//	wearsim -workload BT -nvm STTRAM -psi 100
package main

import (
	"flag"
	"fmt"
	"os"

	"hybridmem/internal/cache"
	"hybridmem/internal/cli"
	"hybridmem/internal/core"
	"hybridmem/internal/report"
	"hybridmem/internal/wear"
)

func main() {
	c := cli.New("wearsim", cli.NVM|cli.Config|cli.Scale)
	c.AddWorkload("Velvet")
	c.Design = "nmm"
	var (
		psi   = flag.Uint64("psi", 100, "Start-Gap period (writes per gap movement)")
		grain = flag.Uint64("grain", 64, "wear-tracking granularity in bytes")
	)
	c.Parse()

	w, wp, err := c.ProfileWorkload()
	c.Exit(err)
	// The -config/-nvm NMM design point; run swaps its NVM terminal for a
	// wear-tracking one.
	b, err := c.Backend(wp.Footprint)
	c.Exit(err)
	dram, nvm := b.Caches[0], b.Memory

	run := func(levelPsi uint64) (wear.Stats, *wear.StartGap) {
		mem, err := wear.NewMemory(nvm.Name, nvm.Tech, wp.Footprint, *grain, levelPsi)
		c.Exit(err)
		dramCache := cache.New(cache.Config{
			Name: dram.Name, Size: dram.Size, LineSize: dram.Line, Assoc: dram.Assoc,
		})
		h, err := core.NewHierarchy(
			[]core.Level{{Cache: dramCache, Tech: dram.Tech}}, mem)
		c.Exit(err)
		h.Replay(wp.Boundary)
		return mem.WearStats(), mem.Leveler()
	}

	raw, _ := run(0)
	leveled, sg := run(*psi)

	// Write rate: NVM line-writes over the modelled runtime.
	rate := float64(raw.TotalWrites) / wp.RefTime.Seconds()
	endurance := wear.EnduranceFor(nvm.Tech.Name)

	t := &report.Table{
		Title:   fmt.Sprintf("%s on %s: NVM wear (grain %dB)", w.Name(), b.Name, *grain),
		Headers: []string{"scheme", "frames touched", "total writes", "hottest frame", "imbalance", "lifetime"},
	}
	addRow := func(name string, s wear.Stats) {
		life := s.LifetimeYears(endurance, rate)
		lifeStr := fmt.Sprintf("%.1f years", life)
		if life > 1000 {
			lifeStr = ">1000 years"
		}
		t.AddRow(name, fmt.Sprint(s.Touched), fmt.Sprint(s.TotalWrites),
			fmt.Sprint(s.MaxWrites), fmt.Sprintf("%.1fx", s.Imbalance), lifeStr)
	}
	addRow("no leveling", raw)
	addRow(fmt.Sprintf("start-gap psi=%d", *psi), leveled)
	_, err = t.WriteTo(os.Stdout)
	c.Exit(err)

	if sg != nil {
		fmt.Printf("\nstart-gap write amplification: %.4fx (%d gap moves)\n",
			sg.Overhead(leveled.TotalWrites-sg.Moves()), sg.Moves())
	}
	fmt.Printf("sustained NVM write rate (modelled): %.0f line-writes/s; endurance budget: %.1e writes/cell\n",
		rate, endurance)
}
