// Checkpointing to NVM: a custom-workload walk-through.
//
// The paper's related-work section notes NVM's role "as fast checkpoint
// memory" (its reference [24]). This example shows the framework's custom-
// workload extension point by implementing a checkpointing application from
// scratch: a stencil solver that periodically dumps its state to a
// checkpoint region, evaluated with the checkpoint region on DRAM versus
// on an NVM partition (the NDM machinery).
//
// Run with: go run ./examples/checkpoint
package main

import (
	"fmt"
	"log"
	"time"

	"hybridmem"
)

// checkpointApp is a user-defined Workload: a 2-D heat-diffusion stencil
// that checkpoints its grid every few sweeps.
type checkpointApp struct {
	n          int
	sweeps     int
	checkEvery int

	grid []float64

	// Simulated address space: the working grid and the checkpoint
	// region are distinct objects, so placement policies can separate
	// them.
	gridR hybridmem.Region
	ckptR hybridmem.Region
}

func newCheckpointApp(n, sweeps, every int) *checkpointApp {
	a := &checkpointApp{n: n, sweeps: sweeps, checkEvery: every}
	a.grid = make([]float64, n*n)
	for i := range a.grid {
		a.grid[i] = float64(i%13) * 0.1
	}
	bytes := uint64(n*n) * 8
	a.gridR = hybridmem.Region{Name: "grid", Base: 1 << 20, Size: bytes}
	a.ckptR = hybridmem.Region{Name: "checkpoint", Base: 1<<20 + bytes + 4096, Size: bytes}
	return a
}

func (a *checkpointApp) Name() string           { return "CheckpointStencil" }
func (a *checkpointApp) Suite() string          { return "Example" }
func (a *checkpointApp) RefTime() time.Duration { return 30 * time.Second }
func (a *checkpointApp) Footprint() uint64      { return uint64(a.n*a.n) * 8 * 2 }
func (a *checkpointApp) Regions() []hybridmem.Region {
	return []hybridmem.Region{a.gridR, a.ckptR}
}

func (a *checkpointApp) Run(sink hybridmem.Sink) {
	n := a.n
	gridBase := a.gridR.Base
	ckptBase := a.ckptR.Base

	mem := hybridmem.NewMem(sink)
	defer mem.Flush()
	load, store := mem.Load8, mem.Store8

	for s := 0; s < a.sweeps; s++ {
		// Jacobi-style sweep (in place, checkerboard order).
		for color := 0; color < 2; color++ {
			for i := 1; i < n-1; i++ {
				for j := 1 + (i+color)%2; j < n-1; j += 2 {
					c := i*n + j
					load(gridBase + uint64(c-1)*8)
					load(gridBase + uint64(c+1)*8)
					load(gridBase + uint64(c-n)*8)
					load(gridBase + uint64(c+n)*8)
					a.grid[c] = 0.25 * (a.grid[c-1] + a.grid[c+1] + a.grid[c-n] + a.grid[c+n])
					store(gridBase + uint64(c)*8)
				}
			}
		}
		// Periodic checkpoint: stream the whole grid into the
		// checkpoint region (sequential read + sequential write).
		if (s+1)%a.checkEvery == 0 {
			for c := 0; c < n*n; c++ {
				load(gridBase + uint64(c)*8)
				store(ckptBase + uint64(c)*8)
			}
		}
	}
}

func main() {
	app := newCheckpointApp(512, 12, 4)
	gridBytes := uint64(app.n*app.n) * 8

	const scale = 32
	profile, err := hybridmem.ProfileWorkload(app, scale, hybridmem.DefaultDilution)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %d refs, %.1f MB footprint, %d boundary refs\n",
		app.Name(), profile.TotalRefs, float64(profile.Footprint)/(1<<20), profile.Boundary.Len())

	// Placement A: everything on DRAM (the reference).
	ref, err := profile.Evaluate(hybridmem.ReferenceDesign(profile.Footprint))
	if err != nil {
		log.Fatal(err)
	}

	// Placement B: the checkpoint region lives on NVM (NDM design with
	// the checkpoint address range on PCM).
	ckpt := app.ckptR
	backend := hybridmem.NDMDesign(
		hybridmem.PCM,
		[]hybridmem.AddrRange{{Start: ckpt.Base, End: ckpt.End()}},
		gridBytes, profile.Footprint, "ckpt-on-nvm")

	ev, err := profile.Evaluate(backend)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%-28s runtime %7.3f s, energy %8.4f J\n", "all-DRAM reference:", ref.RuntimeSec, ref.TotalJ)
	fmt.Printf("%-28s runtime %7.3f s, energy %8.4f J (time %+.1f%%, energy %+.1f%%)\n",
		"checkpoints on PCM:", ev.RuntimeSec, ev.TotalJ,
		(ev.NormTime-1)*100, (ev.NormEnergy-1)*100)
	fmt.Println("\nNon-volatile checkpoints also survive power loss — the paper's")
	fmt.Println("related-work motivation — at a modest write-latency premium.")
}
