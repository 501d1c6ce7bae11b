package hybridmem_test

import (
	"fmt"
	"sort"
	"time"

	"hybridmem"
)

// ExampleTechByName shows technology lookup and Table 1 parameters.
func ExampleTechByName() {
	pcm, _ := hybridmem.TechByName("PCM")
	fmt.Printf("%s: read %gns, write %gns, write energy %g pJ/bit\n",
		pcm.Name, pcm.ReadNS, pcm.WriteNS, pcm.WritePJPerBit)
	// Output:
	// PCM: read 21ns, write 100ns, write energy 210.3 pJ/bit
}

// ExampleWorkloadNames lists the paper's Table 4 benchmark suite.
func ExampleWorkloadNames() {
	names := hybridmem.WorkloadNames()
	sort.Strings(names)
	fmt.Println(names)
	// Output:
	// [AMG2013 BT CG Graph500 Hashing SP Velvet]
}

// ExampleNConfigs walks Table 3's NMM configuration space.
func ExampleNConfigs() {
	for _, c := range hybridmem.NConfigs[:3] {
		fmt.Printf("%s: %d MB DRAM cache, %d B pages\n", c.Name, c.Capacity>>20, c.PageSize)
	}
	// Output:
	// N1: 128 MB DRAM cache, 4096 B pages
	// N2: 256 MB DRAM cache, 4096 B pages
	// N3: 512 MB DRAM cache, 4096 B pages
}

// ExampleTech_WithLatencyScale demonstrates the Figure 9 generalization
// mechanism: scaling a base technology to stand in for a future device.
func ExampleTech_WithLatencyScale() {
	future := hybridmem.DRAM.WithLatencyScale(5, 2)
	fmt.Printf("read %gns, write %gns\n", future.ReadNS, future.WriteNS)
	// Output:
	// read 50ns, write 20ns
}

// ExampleNewWorkload runs a workload against a custom reference-counting
// sink — the extension point for user-defined analyses.
func ExampleNewWorkload() {
	w, err := hybridmem.NewWorkload("STREAM", hybridmem.WorkloadOptions{Scale: 8192, Iters: 1})
	if err != nil {
		panic(err)
	}
	var c hybridmem.Counter
	w.Run(&c)
	// STREAM issues 6 loads and 4 stores per element per iteration.
	fmt.Printf("loads = 1.5x stores: %v\n", c.Loads*2 == c.Stores*3)
	// Output:
	// loads = 1.5x stores: true
}

// dotProduct is a tiny custom Workload: x·y over two n-element float64
// vectors, the result stored to a scalar.
type dotProduct struct{ n uint64 }

// Simulated base addresses of dotProduct's vectors and result.
const xBase, yBase, outBase = 1 << 20, 2 << 20, 3 << 20

func (dotProduct) Name() string           { return "DotProduct" }
func (dotProduct) Suite() string          { return "Example" }
func (dotProduct) RefTime() time.Duration { return time.Second }
func (w dotProduct) Footprint() uint64    { return 2*w.n*8 + 8 }
func (w dotProduct) Regions() []hybridmem.Region {
	return []hybridmem.Region{
		{Name: "x", Base: xBase, Size: w.n * 8},
		{Name: "y", Base: yBase, Size: w.n * 8},
		{Name: "out", Base: outBase, Size: 8},
	}
}

// Run emits references one at a time through NewMem, which hands them to
// sink in batches; Flush delivers the last partial batch.
func (w dotProduct) Run(sink hybridmem.Sink) {
	mem := hybridmem.NewMem(sink)
	defer mem.Flush()
	for i := uint64(0); i < w.n; i++ {
		mem.Load8(xBase + 8*i)
		mem.Load8(yBase + 8*i)
	}
	mem.Store8(outBase)
}

// ExampleNewMem runs a custom workload that emits its references one at a
// time into a Counter.
func ExampleNewMem() {
	var w hybridmem.Workload = dotProduct{n: 5000}
	var c hybridmem.Counter
	w.Run(&c)
	fmt.Printf("%s: %d loads (%d B), %d stores (%d B)\n", w.Name(), c.Loads, c.LoadBytes, c.Stores, c.StoreBytes)
	// Output:
	// DotProduct: 10000 loads (80000 B), 1 stores (8 B)
}
