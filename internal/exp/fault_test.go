package exp

import (
	"context"
	"errors"
	"testing"
	"time"

	"hybridmem/internal/design"
	"hybridmem/internal/fault"
	"hybridmem/internal/tech"
	"hybridmem/internal/trace"
	"hybridmem/internal/workload"
)

// faultyWorkload models a buggy kernel: it emits a few valid references and
// then indexes one of its regions out of bounds.
type faultyWorkload struct {
	arena workload.Arena
	nodes workload.Region
}

func newFaultyWorkload() *faultyWorkload {
	w := &faultyWorkload{}
	w.nodes = w.arena.Alloc("nodes", 4096)
	return w
}

func (w *faultyWorkload) Name() string               { return "Faulty" }
func (w *faultyWorkload) Suite() string              { return "test" }
func (w *faultyWorkload) Footprint() uint64          { return w.arena.Footprint() }
func (w *faultyWorkload) RefTime() time.Duration     { return time.Second }
func (w *faultyWorkload) Regions() []workload.Region { return w.arena.Regions() }

func (w *faultyWorkload) Run(sink trace.Sink) {
	for i := uint64(0); i < 64; i++ {
		sink.AccessBatch([]trace.Ref{{Addr: w.nodes.Addr(i * 8), Size: 8}})
	}
	sink.AccessBatch([]trace.Ref{{Addr: w.nodes.Addr(4096), Size: 8}}) // one past the end
}

func TestProfileRecoversKernelPanic(t *testing.T) {
	_, err := ProfileWorkloadOpts(context.Background(), newFaultyWorkload(), ProfileOptions{Scale: 64})
	if err == nil {
		t.Fatal("profiling a panicking kernel returned nil error")
	}
	var pe *fault.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("got %T (%v), want *fault.PanicError", err, err)
	}
	var re *workload.RegionError
	if !errors.As(err, &re) {
		t.Fatalf("panic value not exposed as *workload.RegionError: %v", err)
	}
	if re.Region != "nodes" || re.Offset != 4096 {
		t.Fatalf("RegionError = %+v", re)
	}
}

func TestEvaluateCtxAttachesFaultStats(t *testing.T) {
	s := suite(t)
	wp := s.Profiles[0]
	nvm, err := tech.ByName("PCM")
	if err != nil {
		t.Fatal(err)
	}

	base := design.NMM(design.NConfigs[0], nvm, testConfig.Scale, wp.Footprint)
	// NMM/N1 moves whole 4KB pages, so λ = BER * 32768 bits; 1e-6 keeps
	// single-bit (correctable) errors dominant.
	faulty := base.WithFault(fault.Config{Seed: 11, BitErrorRate: 1e-6})
	ev1, err := wp.EvaluateCtx(context.Background(), faulty)
	if err != nil {
		t.Fatal(err)
	}
	if ev1.Fault.Accesses == 0 {
		t.Fatal("fault-injected evaluation recorded no terminal accesses")
	}
	if ev1.Fault.Corrected == 0 {
		t.Fatalf("no ECC corrections at BER 1e-6: %+v", ev1.Fault)
	}
	if ev1.Fault.Uncorrected >= ev1.Fault.Corrected {
		t.Fatalf("single-bit errors should dominate at this rate: %+v", ev1.Fault)
	}

	// Same seed, same stream: byte-identical statistics.
	ev2, err := wp.EvaluateCtx(context.Background(), faulty)
	if err != nil {
		t.Fatal(err)
	}
	if ev1.Fault != ev2.Fault {
		t.Fatalf("same-seed fault stats diverged:\n  %+v\n  %+v", ev1.Fault, ev2.Fault)
	}

	// Without injection the evaluation carries zero fault counters.
	plain, err := wp.EvaluateCtx(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Fault != (fault.Stats{}) {
		t.Fatalf("uninjected evaluation carries fault stats: %+v", plain.Fault)
	}
}
