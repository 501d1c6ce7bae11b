package tech

import (
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// TestTable1Values pins every field of the nine named builtin technologies:
// Table 1's latencies and energies, plus the static power and volatility
// the paper references but does not print.
func TestTable1Values(t *testing.T) {
	cases := []struct {
		tech Tech
		want Tech
	}{
		{DRAM, Tech{Name: "DRAM", ReadNS: 10, WriteNS: 10, ReadPJPerBit: 10, WritePJPerBit: 10, StaticWPerGB: 0.12}},
		{PCM, Tech{Name: "PCM", ReadNS: 21, WriteNS: 100, ReadPJPerBit: 12.4, WritePJPerBit: 210.3, NonVolatile: true}},
		{STTRAM, Tech{Name: "STTRAM", ReadNS: 35, WriteNS: 35, ReadPJPerBit: 58.5, WritePJPerBit: 67.7, NonVolatile: true}},
		{FeRAM, Tech{Name: "FeRAM", ReadNS: 40, WriteNS: 65, ReadPJPerBit: 12.4, WritePJPerBit: 210, NonVolatile: true}},
		{EDRAM, Tech{Name: "eDRAM", ReadNS: 4.4, WriteNS: 4.4, ReadPJPerBit: 3.11, WritePJPerBit: 3.09, StaticWPerGB: 1.2}},
		{HMC, Tech{Name: "HMC", ReadNS: 0.18, WriteNS: 0.18, ReadPJPerBit: 0.48, WritePJPerBit: 10.48, StaticWPerGB: 1.6}},
		{SRAML1, Tech{Name: "SRAM-L1", ReadNS: 1.3, WriteNS: 1.3, ReadPJPerBit: 0.35, WritePJPerBit: 0.35, StaticWPerGB: 1536}},
		{SRAML2, Tech{Name: "SRAM-L2", ReadNS: 3.3, WriteNS: 3.3, ReadPJPerBit: 0.6, WritePJPerBit: 0.6, StaticWPerGB: 1024}},
		{SRAML3, Tech{Name: "SRAM-L3", ReadNS: 7.7, WriteNS: 7.7, ReadPJPerBit: 1.0, WritePJPerBit: 1.0, StaticWPerGB: 160}},
	}
	for _, c := range cases {
		if c.tech != c.want {
			t.Errorf("%s = %+v, want %+v", c.want.Name, c.tech, c.want)
		}
	}
}

// TestNVMZeroStatic pins the paper's assumption that NVM draws no static
// power.
func TestNVMZeroStatic(t *testing.T) {
	for _, nv := range Builtin().Class(ClassNVM) {
		if got := nv.StaticPowerW(4 << 30); got != 0 {
			t.Errorf("%s static power = %g W, want 0", nv.Name, got)
		}
		if !nv.NonVolatile {
			t.Errorf("%s not marked non-volatile", nv.Name)
		}
	}
}

func TestVolatileTechsHaveStatic(t *testing.T) {
	for _, v := range []Tech{DRAM, EDRAM, HMC, SRAML1, SRAML2, SRAML3} {
		if v.StaticPowerW(1<<30) <= 0 {
			t.Errorf("%s static power should be positive", v.Name)
		}
		if v.NonVolatile {
			t.Errorf("%s wrongly marked non-volatile", v.Name)
		}
	}
}

// TestByName: the builtin catalog resolves names case-insensitively, takes
// Table 1's "RAM" label as an alias for DRAM, and rejects unknown names.
func TestByName(t *testing.T) {
	cat := Builtin()
	for _, name := range []string{"DRAM", "dram", "RAM", "PCM", "sttram", "FeRAM", "eDRAM", "hmc"} {
		if _, err := cat.Tech(name); err != nil {
			t.Errorf("Tech(%q): %v", name, err)
		}
	}
	if got, _ := cat.Tech("RAM"); got != DRAM {
		t.Errorf("Tech(RAM) = %+v, want DRAM", got)
	}
	if _, err := cat.Tech("flux-capacitor"); err == nil {
		t.Error("Tech of unknown tech should fail")
	} else if !strings.Contains(err.Error(), "unknown technology") {
		t.Errorf("unexpected error text: %v", err)
	}
}

// TestNamesSortedUnique: the builtin catalog's canonical names are sorted,
// unique, and include the six Table 1 technologies.
func TestNamesSortedUnique(t *testing.T) {
	names := Builtin().TechNames()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("TechNames() not sorted/unique: %v", names)
		}
	}
	for _, want := range []string{"DRAM", "FeRAM", "HMC", "PCM", "STTRAM", "eDRAM"} {
		if !slices.Contains(names, want) {
			t.Errorf("TechNames() = %v, missing %s", names, want)
		}
	}
}

// TestCandidateSets pins the builtin catalog's paper-default sweep sets and
// the classes that place each Table 1 technology on a design axis.
func TestCandidateSets(t *testing.T) {
	cat := Builtin()
	if got := cat.NVMs(); !reflect.DeepEqual(got, []Tech{PCM, STTRAM, FeRAM}) {
		t.Errorf("NVMs() = %v", got)
	}
	if got := cat.LLCs(); !reflect.DeepEqual(got, []Tech{EDRAM, HMC}) {
		t.Errorf("LLCs() = %v", got)
	}
	if got := cat.Class(ClassSRAM); !reflect.DeepEqual(got, []Tech{SRAML1, SRAML2, SRAML3}) {
		t.Errorf("Class(sram) = %v", got)
	}
	for _, name := range []string{"DRAM", "eDRAM", "HMC"} {
		if e, _ := cat.Entry(name); e.Class == ClassNVM {
			t.Errorf("%s must not be an NVM candidate", name)
		}
	}
}

func TestStaticPowerLinearInCapacity(t *testing.T) {
	base := DRAM.StaticPowerW(1 << 30)
	if got := DRAM.StaticPowerW(4 << 30); math.Abs(got-4*base) > 1e-12 {
		t.Errorf("static power not linear: 1GB=%g, 4GB=%g", base, got)
	}
	if got := DRAM.StaticPowerW(0); got != 0 {
		t.Errorf("zero-capacity static = %g, want 0", got)
	}
}

func TestWithStaticAndFixed(t *testing.T) {
	tc := DRAM.WithStatic(1.0, 0.5)
	if got := tc.StaticPowerW(2 << 30); math.Abs(got-2.5) > 1e-12 {
		t.Errorf("StaticPowerW = %g, want 2.5", got)
	}
}

func TestLatencyScale(t *testing.T) {
	s := DRAM.WithLatencyScale(5, 2)
	if s.ReadNS != 50 || s.WriteNS != 20 {
		t.Errorf("scaled latency = %g/%g, want 50/20", s.ReadNS, s.WriteNS)
	}
	// Energy untouched.
	if s.ReadPJPerBit != DRAM.ReadPJPerBit || s.WritePJPerBit != DRAM.WritePJPerBit {
		t.Error("latency scaling must not touch energy")
	}
	if !strings.Contains(s.Name, "DRAM") {
		t.Errorf("scaled name %q should mention base", s.Name)
	}
}

func TestEnergyScale(t *testing.T) {
	s := DRAM.WithEnergyScale(2, 9)
	if s.ReadPJPerBit != 20 || s.WritePJPerBit != 90 {
		t.Errorf("scaled energy = %g/%g, want 20/90", s.ReadPJPerBit, s.WritePJPerBit)
	}
	if s.ReadNS != DRAM.ReadNS || s.WriteNS != DRAM.WriteNS {
		t.Error("energy scaling must not touch latency")
	}
}

// TestScalingComposes is a property test: scaling by a then b equals
// scaling by a*b, for positive multipliers.
func TestScalingComposes(t *testing.T) {
	f := func(a, b float64) bool {
		a = 0.5 + math.Mod(math.Abs(a), 10)
		b = 0.5 + math.Mod(math.Abs(b), 10)
		ab := DRAM.WithLatencyScale(a, a).WithLatencyScale(b, b)
		direct := DRAM.WithLatencyScale(a*b, a*b)
		return math.Abs(ab.ReadNS-direct.ReadNS) < 1e-9 &&
			math.Abs(ab.WriteNS-direct.WriteNS) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestValidate(t *testing.T) {
	for _, good := range []Tech{DRAM, PCM, STTRAM, FeRAM, EDRAM, HMC, SRAML1, SRAML2, SRAML3} {
		if err := good.Validate(); err != nil {
			t.Errorf("%s should validate: %v", good.Name, err)
		}
	}
	bad := []Tech{
		{},
		{Name: "x", ReadNS: 0, WriteNS: 1},
		{Name: "x", ReadNS: 1, WriteNS: -1},
		{Name: "x", ReadNS: 1, WriteNS: 1, ReadPJPerBit: -1},
		{Name: "x", ReadNS: 1, WriteNS: 1, StaticWPerGB: -1},
	}
	for i, b := range bad {
		if err := b.Validate(); err == nil {
			t.Errorf("bad tech %d should fail validation", i)
		}
	}
}

func TestAccessHelpers(t *testing.T) {
	if PCM.AccessNS(false) != 21 || PCM.AccessNS(true) != 100 {
		t.Error("AccessNS wrong for PCM")
	}
	if got := PCM.AccessPJ(512, true); math.Abs(got-512*210.3) > 1e-9 {
		t.Errorf("AccessPJ(512, write) = %g", got)
	}
	if got := PCM.AccessPJ(512, false); math.Abs(got-512*12.4) > 1e-9 {
		t.Errorf("AccessPJ(512, read) = %g", got)
	}
}

func TestString(t *testing.T) {
	s := PCM.String()
	for _, want := range []string{"PCM", "21", "100", "12.4", "210.3"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}
