// Package tech models memory technology characteristics.
//
// The characterizations themselves are data: the embedded catalog
// builtin.json holds the paper's Table 1 (read/write delay in nanoseconds and
// read/write energy in pJ/bit for DRAM, PCM, STT-RAM, FeRAM, eDRAM, and HMC),
// the reference system's SRAM caches, the static/refresh power figures the
// paper references but does not print, and post-2014 extension entries. Each
// entry's "source" field records where its numbers came from. The paper's
// qualitative conclusions require only that (a) NVM draws no static power,
// (b) DRAM and eDRAM refresh power grows with capacity, and (c) SRAM leakage
// is significant for a 20MB last-level cache.
package tech

import (
	"fmt"
	"math"
)

// Tech describes one memory technology: access latencies, per-bit dynamic
// energies, and static (leakage plus refresh) power. The zero value is not
// useful; resolve one from a Catalog or validate one with NewCustom.
type Tech struct {
	// Name identifies the technology (e.g. "DRAM", "PCM").
	Name string

	// ReadNS and WriteNS are access delays in nanoseconds (Table 1).
	ReadNS  float64
	WriteNS float64

	// ReadPJPerBit and WritePJPerBit are dynamic access energies in
	// picojoules per bit transferred (Table 1).
	ReadPJPerBit  float64
	WritePJPerBit float64

	// StaticWPerGB is the capacity-proportional static/refresh power in
	// watts per gigabyte. Zero for non-volatile technologies, per the
	// paper's assumption that NVM draws no static power.
	StaticWPerGB float64

	// StaticWFixed is a capacity-independent static power component
	// (peripheral/controller leakage), in watts.
	StaticWFixed float64

	// NonVolatile reports whether the technology retains data without
	// power (retention on the order of years rather than nanoseconds).
	NonVolatile bool
}

// Named builtin technologies: lookups into Builtin(), which holds their
// values and provenance.
var (
	// DRAM is commodity DDR DRAM (Table 1 row "RAM").
	DRAM = Builtin().MustTech("DRAM")
	// PCM is phase-change memory.
	PCM = Builtin().MustTech("PCM")
	// STTRAM is spin-torque-transfer magnetic RAM.
	STTRAM = Builtin().MustTech("STTRAM")
	// FeRAM is chain ferro-electric RAM.
	FeRAM = Builtin().MustTech("FeRAM")
	// EDRAM is on-chip embedded DRAM.
	EDRAM = Builtin().MustTech("eDRAM")
	// HMC is the Hybrid Memory Cube.
	HMC = Builtin().MustTech("HMC")
	// SRAML1, SRAML2, and SRAML3 are the reference system's on-chip SRAM
	// caches.
	SRAML1 = Builtin().MustTech("SRAM-L1")
	SRAML2 = Builtin().MustTech("SRAM-L2")
	SRAML3 = Builtin().MustTech("SRAM-L3")
)

// StaticPowerW returns the static power drawn by capacityBytes of this
// technology, in watts: the fixed component plus the capacity-proportional
// component. Non-volatile technologies with zero coefficients return zero.
func (t Tech) StaticPowerW(capacityBytes uint64) float64 {
	const bytesPerGB = 1 << 30
	return t.StaticWFixed + t.StaticWPerGB*float64(capacityBytes)/bytesPerGB
}

// WithLatencyScale returns a copy of t with read and write latency
// multiplied by readMult and writeMult. It is the generalization mechanism
// behind the paper's Figure 9 heat map, which scales DRAM latency to stand
// in for arbitrary future technologies.
func (t Tech) WithLatencyScale(readMult, writeMult float64) Tech {
	t.ReadNS *= readMult
	t.WriteNS *= writeMult
	t.Name = fmt.Sprintf("%s[lat r%gx w%gx]", t.Name, readMult, writeMult)
	return t
}

// WithEnergyScale returns a copy of t with read and write per-bit energy
// multiplied by readMult and writeMult (the paper's Figure 10 heat map).
func (t Tech) WithEnergyScale(readMult, writeMult float64) Tech {
	t.ReadPJPerBit *= readMult
	t.WritePJPerBit *= writeMult
	t.Name = fmt.Sprintf("%s[en r%gx w%gx]", t.Name, readMult, writeMult)
	return t
}

// WithStatic returns a copy of t with the given static-power coefficients.
func (t Tech) WithStatic(wPerGB, wFixed float64) Tech {
	t.StaticWPerGB = wPerGB
	t.StaticWFixed = wFixed
	return t
}

// Validate reports the first invalid parameter of the technology as a typed
// error: an empty name, a non-finite/non-positive latency (*ValueError), or
// a non-finite/negative energy or static-power coefficient (*ValueError).
// NaN and infinities are rejected explicitly — a plain `<= 0` comparison
// lets NaN flow silently into the AMAT and energy math.
func (t Tech) Validate() error {
	if t.Name == "" {
		return fmt.Errorf("tech: empty name")
	}
	positive := []struct {
		field string
		v     float64
	}{
		{"read_ns", t.ReadNS},
		{"write_ns", t.WriteNS},
	}
	for _, p := range positive {
		if math.IsNaN(p.v) || math.IsInf(p.v, 0) || p.v <= 0 {
			return &ValueError{Tech: t.Name, Field: p.field, Value: p.v, Reason: "must be finite and > 0"}
		}
	}
	nonNegative := []struct {
		field string
		v     float64
	}{
		{"read_pj_per_bit", t.ReadPJPerBit},
		{"write_pj_per_bit", t.WritePJPerBit},
		{"static_w_per_gb", t.StaticWPerGB},
		{"static_w_fixed", t.StaticWFixed},
	}
	for _, p := range nonNegative {
		if math.IsNaN(p.v) || math.IsInf(p.v, 0) || p.v < 0 {
			return &ValueError{Tech: t.Name, Field: p.field, Value: p.v, Reason: "must be finite and >= 0"}
		}
	}
	return nil
}

// NewCustom validates and returns a user-defined technology. It is the
// front door for characterizations that did not come from the embedded
// catalog: malformed values (NaN, infinities, negative energies,
// zero-latency devices) are rejected with a typed *ValueError instead of
// flowing silently into the AMAT/energy math.
func NewCustom(t Tech) (Tech, error) {
	if err := t.Validate(); err != nil {
		return Tech{}, err
	}
	return t, nil
}

// AccessNS returns the access latency for a load or store.
func (t Tech) AccessNS(write bool) float64 {
	if write {
		return t.WriteNS
	}
	return t.ReadNS
}

// AccessPJ returns the dynamic energy in picojoules for transferring the
// given number of bits in the given direction.
func (t Tech) AccessPJ(bits uint64, write bool) float64 {
	if write {
		return t.WritePJPerBit * float64(bits)
	}
	return t.ReadPJPerBit * float64(bits)
}

// String formats the technology as its Table 1 row.
func (t Tech) String() string {
	return fmt.Sprintf("%s: read %gns write %gns, read %gpJ/b write %gpJ/b, static %gW/GB+%gW",
		t.Name, t.ReadNS, t.WriteNS, t.ReadPJPerBit, t.WritePJPerBit, t.StaticWPerGB, t.StaticWFixed)
}
