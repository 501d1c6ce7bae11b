package ndm

import (
	"strings"
	"testing"
	"testing/quick"

	"hybridmem/internal/core"
	"hybridmem/internal/trace"
	"hybridmem/internal/workload"
)

// pack encodes refs as the packed boundary stream Profile and
// SimulateDynamic walk.
func pack(refs []trace.Ref) *trace.Packed {
	var p trace.Packed
	p.AccessBatch(refs)
	return &p
}

func regions(sizes ...uint64) []workload.Region {
	var a workload.Arena
	out := make([]workload.Region, len(sizes))
	for i, s := range sizes {
		out[i] = a.Alloc(string(rune('a'+i)), s)
	}
	return out
}

func TestCandidatesNoMerge(t *testing.T) {
	regs := regions(1000, 2000, 3000)
	cands := Candidates(regs, 0, 10)
	if len(cands) != 3 {
		t.Fatalf("got %d candidates, want 3 (guard pages prevent merging at gap 0)", len(cands))
	}
	for i, c := range cands {
		if c.Bytes != regs[i].Size {
			t.Errorf("candidate %d bytes = %d, want %d", i, c.Bytes, regs[i].Size)
		}
	}
}

func TestCandidatesMergeByGap(t *testing.T) {
	regs := regions(1000, 2000, 3000)
	// A huge gap tolerance merges everything.
	cands := Candidates(regs, 1<<30, 10)
	if len(cands) != 1 {
		t.Fatalf("got %d candidates, want 1", len(cands))
	}
	if cands[0].Bytes != 6000 {
		t.Errorf("merged bytes = %d, want 6000", cands[0].Bytes)
	}
	if !strings.Contains(cands[0].Name, "a") || !strings.Contains(cands[0].Name, "c") {
		t.Errorf("merged name %q", cands[0].Name)
	}
}

func TestCandidatesCap(t *testing.T) {
	regs := regions(100, 100, 100, 100, 100, 5000)
	cands := Candidates(regs, 0, 3)
	if len(cands) != 3 {
		t.Fatalf("got %d candidates, want cap of 3", len(cands))
	}
	var total uint64
	for _, c := range cands {
		total += c.Bytes
	}
	if total != 5500 {
		t.Fatalf("capping lost bytes: %d", total)
	}
	// The large region should survive as (part of) its own candidate;
	// merging prefers the smallest neighbors.
	if cands[2].Bytes < 5000 {
		t.Errorf("largest region should not be absorbed first: %+v", cands)
	}
}

func TestCandidatesEmpty(t *testing.T) {
	if got := Candidates(nil, 0, 3); got != nil {
		t.Fatalf("Candidates(nil) = %v", got)
	}
}

func TestProfileCounting(t *testing.T) {
	regs := regions(1000, 1000)
	cands := Candidates(regs, 0, 10)
	refs := []trace.Ref{
		{Addr: regs[0].Base, Size: 64, Kind: trace.Load},
		{Addr: regs[0].Base + 500, Size: 64, Kind: trace.Store},
		{Addr: regs[1].Base, Size: 64, Kind: trace.Load},
		{Addr: regs[1].End() + 4096, Size: 64, Kind: trace.Load}, // outside
	}
	profiled, other := Profile(cands, pack(refs))
	if profiled[0].Loads != 1 || profiled[0].Stores != 1 {
		t.Fatalf("range 0 = %+v", profiled[0])
	}
	if profiled[0].LoadBits != 512 || profiled[0].StoreBits != 512 {
		t.Fatalf("range 0 bits = %d/%d", profiled[0].LoadBits, profiled[0].StoreBits)
	}
	if profiled[1].Loads != 1 || profiled[1].Stores != 0 {
		t.Fatalf("range 1 = %+v", profiled[1])
	}
	if other.Loads != 1 {
		t.Fatalf("other = %+v", other)
	}
	if profiled[0].Accesses() != 2 {
		t.Fatalf("Accesses = %d", profiled[0].Accesses())
	}
}

// TestProfileConservation is a property test: profiled counts plus the
// "other" bucket always equal the stream totals.
func TestProfileConservation(t *testing.T) {
	regs := regions(4096, 4096, 4096)
	cands := Candidates(regs, 0, 10)
	span := regs[2].End() + 8192
	f := func(addrs []uint32, kinds []bool) bool {
		n := len(addrs)
		if len(kinds) < n {
			n = len(kinds)
		}
		var refs []trace.Ref
		for i := 0; i < n; i++ {
			k := trace.Load
			if kinds[i] {
				k = trace.Store
			}
			refs = append(refs, trace.Ref{Addr: uint64(addrs[i]) % span, Size: 8, Kind: k})
		}
		profiled, other := Profile(cands, pack(refs))
		var loads, stores uint64
		for _, p := range profiled {
			loads += p.Loads
			stores += p.Stores
		}
		loads += other.Loads
		stores += other.Stores
		var wantLoads, wantStores uint64
		for _, r := range refs {
			if r.Kind == trace.Store {
				wantStores++
			} else {
				wantLoads++
			}
		}
		return loads == wantLoads && stores == wantStores
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPlacementsEnumeration(t *testing.T) {
	regs := regions(1000, 2000, 3000)
	cands := Candidates(regs, 0, 10)
	ps := Placements(cands)
	// One per candidate plus the all-on-NVM extreme.
	if len(ps) != 4 {
		t.Fatalf("got %d placements, want 4", len(ps))
	}
	if ps[3].Label != "nvm:all" {
		t.Fatalf("last placement = %q", ps[3].Label)
	}
	if ps[3].NVMBytes() != 6000 {
		t.Fatalf("all-NVM bytes = %d", ps[3].NVMBytes())
	}
	if got := ps[0].NVMRanges(); len(got) != 1 || got[0].Size() < 1000 {
		t.Fatalf("placement 0 ranges = %v", got)
	}
}

func TestPlacementsSingleCandidate(t *testing.T) {
	cands := Candidates(regions(1000), 0, 10)
	ps := Placements(cands)
	if len(ps) != 1 {
		t.Fatalf("single candidate should yield 1 placement, got %d", len(ps))
	}
}

func TestPlacementTraffic(t *testing.T) {
	p := Placement{
		Label: "t",
		NVM: []RangeStats{
			{Loads: 10, Stores: 5, LoadBits: 100, StoreBits: 50},
			{Loads: 1, Stores: 2, LoadBits: 10, StoreBits: 20},
		},
	}
	l, s, lb, sb := p.Traffic()
	if l != 11 || s != 7 || lb != 110 || sb != 70 {
		t.Fatalf("Traffic = %d/%d/%d/%d", l, s, lb, sb)
	}
	if p.String() == "" {
		t.Error("empty String()")
	}
}

func TestFindRangeBinarySearch(t *testing.T) {
	rs := []RangeStats{
		{Range: core.AddrRange{Start: 100, End: 200}},
		{Range: core.AddrRange{Start: 300, End: 400}},
		{Range: core.AddrRange{Start: 500, End: 600}},
	}
	cases := map[uint64]int{99: -1, 100: 0, 199: 0, 200: -1, 350: 1, 599: 2, 600: -1}
	for addr, want := range cases {
		if got := findRange(rs, addr); got != want {
			t.Errorf("findRange(%d) = %d, want %d", addr, got, want)
		}
	}
}

func TestWriteAwarePlacement(t *testing.T) {
	profiled := []RangeStats{
		{Name: "hotwrites", Bytes: 1000, Loads: 100, Stores: 1000,
			Range: core.AddrRange{Start: 0, End: 1000}},
		{Name: "hotreads", Bytes: 1000, Loads: 3000, Stores: 0,
			Range: core.AddrRange{Start: 2000, End: 3000}},
		{Name: "cold", Bytes: 1000, Loads: 10, Stores: 1,
			Range: core.AddrRange{Start: 4000, End: 5000}},
	}
	// Budget for exactly one range on DRAM: the write-hot one wins
	// (weighted density 5100 > 3000 > 15).
	p := WriteAwarePlacement(profiled, 1000)
	if len(p.NVM) != 2 {
		t.Fatalf("NVM ranges = %d, want 2", len(p.NVM))
	}
	for _, r := range p.NVM {
		if r.Name == "hotwrites" {
			t.Fatal("write-hot range must stay on DRAM")
		}
	}
	// Budget for two: hotreads joins DRAM.
	p = WriteAwarePlacement(profiled, 2000)
	if len(p.NVM) != 1 || p.NVM[0].Name != "cold" {
		t.Fatalf("NVM = %v, want only the cold range", p.NVM)
	}
	// Zero budget: everything on NVM.
	p = WriteAwarePlacement(profiled, 0)
	if p.NVMBytes() != 3000 {
		t.Fatalf("zero budget NVM bytes = %d", p.NVMBytes())
	}
}

func TestRangeDensityZeroBytes(t *testing.T) {
	if rangeDensity(RangeStats{Bytes: 0, Loads: 10}) != 0 {
		t.Fatal("zero-byte range density must be 0")
	}
}
