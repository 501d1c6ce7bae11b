package design

import (
	"strings"
	"testing"

	"hybridmem/internal/core"
	"hybridmem/internal/tech"
	"hybridmem/internal/trace"
)

func TestValidateScale(t *testing.T) {
	for _, s := range []uint64{1, 2, 4, 8, 16, 32, 64} {
		if err := ValidateScale(s); err != nil {
			t.Errorf("scale %d should validate: %v", s, err)
		}
	}
	for _, s := range []uint64{0, 3, 5, 12, 128, 96} {
		if err := ValidateScale(s); err == nil {
			t.Errorf("scale %d should fail", s)
		}
	}
}

func TestTable2Contents(t *testing.T) {
	if len(EHConfigs) != 8 {
		t.Fatalf("Table 2 has %d rows, want 8", len(EHConfigs))
	}
	// Paper values: EH1-EH6 are 16MB with doubling page sizes from 64B.
	wantPages := []uint64{64, 128, 256, 512, 1024, 2048, 2048, 2048}
	for i, c := range EHConfigs {
		if c.PageSize != wantPages[i] {
			t.Errorf("%s page = %d, want %d", c.Name, c.PageSize, wantPages[i])
		}
	}
	for i := 0; i < 6; i++ {
		if EHConfigs[i].Capacity != 16<<20 {
			t.Errorf("%s capacity = %d, want 16MB", EHConfigs[i].Name, EHConfigs[i].Capacity)
		}
	}
	if EHConfigs[6].Capacity != 8<<20 {
		t.Errorf("EH7 capacity = %d, want 8MB", EHConfigs[6].Capacity)
	}
}

func TestTable3Contents(t *testing.T) {
	if len(NConfigs) != 9 {
		t.Fatalf("Table 3 has %d rows, want 9", len(NConfigs))
	}
	wantCaps := []uint64{128 << 20, 256 << 20, 512 << 20, 512 << 20, 512 << 20, 512 << 20, 512 << 20, 512 << 20, 512 << 20}
	wantPages := []uint64{4096, 4096, 4096, 2048, 1024, 512, 256, 128, 64}
	for i, c := range NConfigs {
		if c.Capacity != wantCaps[i] || c.PageSize != wantPages[i] {
			t.Errorf("%s = %d/%d, want %d/%d", c.Name, c.Capacity, c.PageSize, wantCaps[i], wantPages[i])
		}
	}
}

func TestConfigLookups(t *testing.T) {
	if c, err := EHByName("EH3"); err != nil || c.PageSize != 256 {
		t.Errorf("EHByName(EH3) = %+v, %v", c, err)
	}
	if _, err := EHByName("EH99"); err == nil {
		t.Error("unknown EH config should fail")
	}
	if c, err := NByName("N6"); err != nil || c.PageSize != 512 {
		t.Errorf("NByName(N6) = %+v, %v", c, err)
	}
	if _, err := NByName("N0"); err == nil {
		t.Error("unknown N config should fail")
	}
}

func TestPrefixGeometry(t *testing.T) {
	for _, scale := range []uint64{1, 8, 32, 64} {
		levels, err := DefaultRegistry().BuildPrefix(scale)
		if err != nil {
			t.Fatalf("scale %d: %v", scale, err)
		}
		if len(levels) != 3 {
			t.Fatalf("prefix has %d levels", len(levels))
		}
		wantSizes := []uint64{32 << 10 / scale, 256 << 10 / scale, 20 << 20 / SharedL3Cores / scale}
		for i, l := range levels {
			cfg := l.Cache.Config()
			if cfg.Size != wantSizes[i] {
				t.Errorf("scale %d level %d size = %d, want %d", scale, i, cfg.Size, wantSizes[i])
			}
			if cfg.LineSize != CacheLine {
				t.Errorf("level %d line = %d", i, cfg.LineSize)
			}
		}
	}
	if _, err := DefaultRegistry().BuildPrefix(0); err == nil {
		t.Error("scale 0 should fail")
	}
}

// buildAndTouch builds a backend and pushes a few references to prove it is
// functional.
func buildAndTouch(t *testing.T, b Backend) *core.Hierarchy {
	t.Helper()
	built, err := b.Build()
	if err != nil {
		t.Fatalf("%s: %v", b.Name, err)
	}
	built.AccessBatch([]trace.Ref{{Addr: 0, Size: 64, Kind: trace.Load}})
	built.AccessBatch([]trace.Ref{{Addr: 4096, Size: 64, Kind: trace.Store}})
	built.Flush()
	return built
}

func TestAllDesignPointsBuild(t *testing.T) {
	const footprint = 64 << 20
	for _, scale := range []uint64{1, 32, 64} {
		buildAndTouch(t, DefaultRegistry().Reference(footprint))
		for _, cfg := range EHConfigs {
			for _, llc := range tech.Builtin().LLCs() {
				buildAndTouch(t, DefaultRegistry().FourLCWith(cfg, llc, scale, footprint))
				buildAndTouch(t, DefaultRegistry().FourLCNVMWith(cfg, llc, tech.PCM, scale, footprint))
			}
		}
		for _, cfg := range NConfigs {
			for _, nvm := range tech.Builtin().NVMs() {
				buildAndTouch(t, DefaultRegistry().NMMWith(cfg, nvm, scale, footprint))
			}
		}
	}
}

func TestReferenceBackendShape(t *testing.T) {
	b := DefaultRegistry().Reference(1 << 30)
	built := buildAndTouch(t, b)
	snap := built.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("reference backend has %d levels, want memory only", len(snap))
	}
	if snap[0].Tech.Name != "DRAM" || snap[0].Capacity != 1<<30 {
		t.Fatalf("reference memory = %+v", snap[0])
	}
}

func TestNMMBackendShape(t *testing.T) {
	cfg, _ := NByName("N6")
	b := DefaultRegistry().NMMWith(cfg, tech.PCM, 32, 1<<30)
	built := buildAndTouch(t, b)
	snap := built.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("NMM backend has %d levels, want DRAM$ + NVM", len(snap))
	}
	if snap[0].Tech.Name != "DRAM" || snap[0].Capacity != cfg.Capacity/32 {
		t.Fatalf("DRAM cache = %+v", snap[0])
	}
	if snap[1].Tech.Name != "PCM" || snap[1].Capacity != 1<<30 {
		t.Fatalf("NVM = %+v", snap[1])
	}
	if !strings.Contains(b.Name, "N6") || !strings.Contains(b.Name, "PCM") {
		t.Errorf("backend name %q", b.Name)
	}
}

func TestFourLCBackendShape(t *testing.T) {
	cfg, _ := EHByName("EH1")
	b := DefaultRegistry().FourLCWith(cfg, tech.HMC, 32, 1<<30)
	built := buildAndTouch(t, b)
	snap := built.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("4LC backend has %d levels", len(snap))
	}
	if snap[0].Tech.Name != "HMC" {
		t.Fatalf("L4 tech = %s", snap[0].Tech.Name)
	}
	if snap[0].Capacity != cfg.Capacity/32 {
		t.Fatalf("L4 capacity = %d", snap[0].Capacity)
	}
	if got := built.Snapshot()[0].Name; !strings.Contains(got, "HMC") {
		t.Errorf("L4 name = %q", got)
	}
}

func TestFourLCNVMHasNoDRAM(t *testing.T) {
	cfg, _ := EHByName("EH1")
	b := DefaultRegistry().FourLCNVMWith(cfg, tech.EDRAM, tech.STTRAM, 32, 1<<30)
	built := buildAndTouch(t, b)
	for _, l := range built.Snapshot() {
		if l.Tech.Name == "DRAM" {
			t.Fatal("4LCNVM must not contain DRAM")
		}
	}
}

func TestNDMBackend(t *testing.T) {
	ranges := []core.AddrRange{{Start: 0, End: 1 << 20}}
	b := DefaultRegistry().NDMWith(tech.FeRAM, ranges, 1<<20, 4<<20, "test")
	built, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	built.AccessBatch([]trace.Ref{{Addr: 100, Size: 64, Kind: trace.Load}})     // NVM side
	built.AccessBatch([]trace.Ref{{Addr: 2 << 20, Size: 64, Kind: trace.Load}}) // DRAM side
	snap := built.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("NDM has %d modules", len(snap))
	}
	nvm, dram := snap[0], snap[1]
	if nvm.Stats.Loads != 1 || dram.Stats.Loads != 1 {
		t.Fatalf("routing wrong: nvm=%+v dram=%+v", nvm.Stats, dram.Stats)
	}
	if nvm.Capacity != 1<<20 || dram.Capacity != 3<<20 {
		t.Fatalf("capacities: nvm=%d dram=%d", nvm.Capacity, dram.Capacity)
	}
}

func TestNDMCapacityClamp(t *testing.T) {
	// NVM bytes exceeding the footprint must clamp DRAM to zero.
	b := DefaultRegistry().NDMWith(tech.PCM, nil, 8<<20, 4<<20, "clamp")
	if b.Memory.DRAMCapacity != 0 {
		t.Fatalf("DRAM capacity = %d, want 0", b.Memory.DRAMCapacity)
	}
}

func TestNDMRejectsOverlappingRanges(t *testing.T) {
	ranges := []core.AddrRange{{Start: 0, End: 100}, {Start: 50, End: 150}}
	b := DefaultRegistry().NDMWith(tech.PCM, ranges, 100, 1000, "bad")
	if _, err := b.Build(); err == nil {
		t.Fatal("overlapping NVM ranges should fail to build")
	}
}

func TestAssocClampOnTinyCaches(t *testing.T) {
	// EH8 at scale 64: 4MB/64 = 64KB with 2KB pages = 32 lines < 16 ways
	// x ... must degrade gracefully rather than fail.
	cfg, _ := EHByName("EH8")
	b := DefaultRegistry().FourLCWith(cfg, tech.EDRAM, 64, 1<<30)
	if _, err := b.Build(); err != nil {
		t.Fatalf("EH8 at scale 64: %v", err)
	}
}
