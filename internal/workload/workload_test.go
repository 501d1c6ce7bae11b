package workload

import (
	"errors"
	"testing"
	"testing/quick"

	"hybridmem/internal/trace"
)

func TestArenaAllocations(t *testing.T) {
	var a Arena
	r1 := a.Alloc("one", 100)
	r2 := a.Alloc("two", 5000)
	if r1.Base == 0 {
		t.Fatal("address 0 must never be allocated")
	}
	if r1.Base%4096 != 0 || r2.Base%4096 != 0 {
		t.Fatal("regions must be page-aligned")
	}
	if r1.End() > r2.Base {
		t.Fatal("regions overlap")
	}
	if r2.Base-r1.End() < 4096 {
		t.Fatal("missing guard page between regions")
	}
	if got := a.Footprint(); got != 5100 {
		t.Fatalf("Footprint = %d, want 5100", got)
	}
	regs := a.Regions()
	if len(regs) != 2 || regs[0].Name != "one" || regs[1].Name != "two" {
		t.Fatalf("Regions() = %v", regs)
	}
}

func TestArenaZeroSize(t *testing.T) {
	var a Arena
	r := a.Alloc("zero", 0)
	if r.Size != 1 {
		t.Fatalf("zero-size alloc got size %d, want 1", r.Size)
	}
}

// TestArenaDisjointness is a property test: any allocation sequence yields
// pairwise-disjoint regions in increasing address order.
func TestArenaDisjointness(t *testing.T) {
	f := func(sizes []uint16) bool {
		var a Arena
		var regs []Region
		for i, s := range sizes {
			if i > 64 {
				break
			}
			regs = append(regs, a.Alloc("r", uint64(s)+1))
		}
		for i := 1; i < len(regs); i++ {
			if regs[i-1].End() > regs[i].Base {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRegionAddr(t *testing.T) {
	r := Region{Name: "x", Base: 8192, Size: 64}
	if got := r.Addr(10); got != 8202 {
		t.Fatalf("Addr(10) = %d", got)
	}
	if got := r.Idx(3, 8); got != 8192+24 {
		t.Fatalf("Idx(3,8) = %d", got)
	}
	if !r.Contains(8192) || r.Contains(8192+64) {
		t.Fatal("Contains boundary wrong")
	}
	if r.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestRegionAddrPanicsOutOfBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("out-of-region Addr should panic")
		}
	}()
	r := Region{Name: "x", Base: 0x1000, Size: 64}
	r.Addr(64)
}

func TestMemEmission(t *testing.T) {
	var refs []trace.Ref
	m := NewMem(trace.SinkFunc(func(batch []trace.Ref) { refs = append(refs, batch...) }))
	m.Load8(100)
	m.Store8(200)
	m.Load4(300)
	m.Store4(400)
	m.Load1(500)
	m.Store1(600)
	m.LoadN(700, 40)
	m.StoreN(800, 24)
	m.Flush()
	wantSizes := []uint32{8, 8, 4, 4, 1, 1, 40, 24}
	wantKinds := []trace.Kind{trace.Load, trace.Store, trace.Load, trace.Store, trace.Load, trace.Store, trace.Load, trace.Store}
	if len(refs) != len(wantSizes) {
		t.Fatalf("emitted %d refs", len(refs))
	}
	for i, r := range refs {
		if r.Size != wantSizes[i] || r.Kind != wantKinds[i] {
			t.Errorf("ref %d = %+v", i, r)
		}
	}
	if refs[0].Addr != 100 || refs[7].Addr != 800 {
		t.Error("addresses wrong")
	}
}

func TestOptionsDefaults(t *testing.T) {
	var o Options
	if o.scaleOrDefault() != 64 {
		t.Errorf("default scale = %d", o.scaleOrDefault())
	}
	if o.itersOrDefault(5) != 5 {
		t.Errorf("default iters = %d", o.itersOrDefault(5))
	}
	o = Options{Scale: 8, Iters: 3}
	if o.scaleOrDefault() != 8 || o.itersOrDefault(5) != 3 {
		t.Error("explicit options not honored")
	}
}

// TestAddrPanicsTyped verifies the kernel-facing contract: an out-of-bounds
// region offset panics with a *RegionError that the evaluation boundary
// recovers into a typed error instead of killing the process.
func TestAddrPanicsTyped(t *testing.T) {
	var a Arena
	r := a.Alloc("nodes", 100)
	recovered := func() (err error) {
		defer func() {
			if v := recover(); v != nil {
				err = v.(error)
			}
		}()
		r.Addr(100) // one past the end
		return nil
	}()
	var re *RegionError
	if !errors.As(recovered, &re) {
		t.Fatalf("got %T (%v), want *RegionError", recovered, recovered)
	}
	if re.Region != "nodes" || re.Offset != 100 || re.Size != 100 {
		t.Fatalf("RegionError = %+v", re)
	}
	if re.Error() == "" {
		t.Fatal("empty Error()")
	}
}
