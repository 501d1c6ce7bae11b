// Graph500: drive a single workload through custom design points.
//
// This example builds the CORAL Graph500 workload (breadth-first search on
// a Kronecker graph), profiles it once, and compares an eDRAM fourth-level
// cache against an HMC one (the paper's 4LC design, configuration EH1) —
// including per-level hit rates, which show where BFS's random pointer
// chasing gets filtered.
//
// Run with: go run ./examples/graph500
package main

import (
	"context"
	"fmt"
	"log"

	"hybridmem"
)

func main() {
	const scale = 32 // capacity co-scaling (see DESIGN.md)

	w, err := hybridmem.NewWorkload("Graph500", hybridmem.WorkloadOptions{Scale: scale})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Graph500: footprint %.1f MB\n", float64(w.Footprint())/(1<<20))

	// One expensive pass through L1/L2/L3 records the boundary stream...
	profile, err := hybridmem.ProfileWorkload(w, scale, hybridmem.DefaultDilution)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("simulated %d references; %d reached memory\n\n", profile.TotalRefs, profile.Boundary.Len())

	// ...and every design point below replays just that stream.
	for _, llc := range hybridmem.LLCs() {
		cfg := hybridmem.EHConfigs[0] // EH1: 16MB, 64B pages
		backend := hybridmem.FourLC(cfg, llc, scale, profile.Footprint)

		res := profile.EvaluateFanout(context.Background(), []hybridmem.Backend{backend})[0]
		if res.Err != nil {
			log.Fatal(res.Err)
		}
		ev := res.Eval
		fmt.Printf("%-16s norm time %.4f, norm energy %.4f, norm EDP %.4f\n",
			backend.Name, ev.NormTime, ev.NormEnergy, ev.NormEDP)

		// Inspect the L4's filtering effect directly: the evaluating
		// replay's per-level statistics.
		for _, l := range res.Snap {
			if l.Stats.Accesses() == 0 {
				continue
			}
			fmt.Printf("    %-12s %9d loads, %8d stores, %6.2f%% hits\n",
				l.Name, l.Stats.Loads, l.Stats.Stores, l.Stats.HitRate()*100)
		}
	}
}
