// Command multicore simulates several cores sharing the reference
// machine's L3 and measures the contention that justifies the single-core
// model's per-core L3 slice (design.SharedL3Cores).
//
// Usage:
//
//	multicore -copies 8 -workload CG -workload-scale 512   # 8 copies of CG share the L3
//	multicore -workloads BT,CG,Hashing -workload-scale 512 # a heterogeneous mix
//
// The tool prints per-core private-cache behaviour, the shared L3's hit
// rate, and the "effective per-core share": the solo L3 capacity that
// reproduces the contended hit rate.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"hybridmem/internal/cli"
	"hybridmem/internal/multicore"
	"hybridmem/internal/report"
	"hybridmem/internal/workload"
)

func main() {
	c := cli.New("multicore", cli.Scale|cli.WorkloadScale)
	c.AddWorkload("CG")
	var (
		copies = flag.Int("copies", 4, "number of identical cores")
		mix    = flag.String("workloads", "", "comma-separated heterogeneous mix, one core each (overrides -copies)")
		batch  = flag.Int("batch", 64, "references per interleaver turn")
	)
	c.Parse()

	mk := func(name string) workload.Workload {
		w, err := c.NewWorkload(name)
		c.Exit(err)
		return w
	}

	var ws []workload.Workload
	if *mix != "" {
		for _, n := range strings.Split(*mix, ",") {
			ws = append(ws, mk(strings.TrimSpace(n)))
		}
	} else {
		for i := 0; i < *copies; i++ {
			ws = append(ws, mk(c.Workload))
		}
	}

	cfg := multicore.Config{Scale: c.Scale, BatchRefs: *batch}
	fmt.Fprintf(os.Stderr, "simulating %d cores...\n", len(ws))
	res, err := multicore.Run(cfg, ws, nil)
	c.Exit(err)

	t := &report.Table{
		Title:   fmt.Sprintf("%d cores sharing one L3", len(res.Cores)),
		Headers: []string{"core", "refs", "L1 hit", "L2 hit", "forwarded to L3"},
	}
	for _, core := range res.Cores {
		t.AddRow(core.Name, fmt.Sprint(core.Refs),
			fmt.Sprintf("%.2f%%", core.L1.HitRate()*100),
			fmt.Sprintf("%.2f%%", core.L2.HitRate()*100),
			fmt.Sprint(core.Forwarded))
	}
	_, err = t.WriteTo(os.Stdout)
	c.Exit(err)

	fmt.Printf("\nshared L3: %d accesses, %.2f%% hits; memory: %d loads, %d stores\n",
		res.L3.Accesses(), res.L3HitRate()*100, res.Memory.Loads, res.Memory.Stores)

	// Solo baseline and effective per-core share for the replicated case.
	if *mix == "" && *copies > 1 {
		solo, err := multicore.Run(cfg, []workload.Workload{mk(c.Workload)}, nil)
		c.Exit(err)
		fmt.Printf("solo %s L3 hit rate: %.2f%% (contention cost: %.2f points)\n",
			c.Workload, solo.L3HitRate()*100, (solo.L3HitRate()-res.L3HitRate())*100)
		share, l3Size, err := multicore.EffectiveShare(cfg, func() workload.Workload { return mk(c.Workload) }, res.L3HitRate())
		c.Exit(err)
		fmt.Printf("effective per-core L3 share: %.0f KB of %.0f KB total (1/%d)\n",
			float64(share)/1024, float64(l3Size)/1024, l3Size/share)
	}
}
