package design

import (
	"errors"
	"testing"

	"hybridmem/internal/tech"
)

// TestRegistryClassMismatch checks the typed error for a tech resolved on
// the wrong design axis, plus unknown-name passthrough.
func TestRegistryClassMismatch(t *testing.T) {
	r := DefaultRegistry()
	_, err := r.FourLC("EH1", "PCM", 1, 1<<28)
	var ce *ClassError
	if !errors.As(err, &ce) {
		t.Fatalf("FourLC with NVM tech: error %T (%v), want *ClassError", err, err)
	}
	if ce.Tech != "PCM" || ce.Class != tech.ClassNVM || ce.Want != tech.ClassLLC {
		t.Errorf("ClassError = %+v", ce)
	}
	if _, err := r.NMM("N1", "eDRAM", 1, 1<<28); err == nil {
		t.Error("NMM with LLC tech accepted")
	}
	var ue *tech.UnknownError
	if _, err := r.NMM("N1", "flux-capacitor", 1, 1<<28); !errors.As(err, &ue) {
		t.Errorf("unknown NVM name: error %v, want *tech.UnknownError", err)
	}
	if _, err := r.FourLC("EH99", "HMC", 1, 1<<28); err == nil {
		t.Error("unknown EH config accepted")
	}
}

// TestRegistryExtensions: post-2014 catalog entries build NMM design points
// by name even though they are excluded from the paper-default sweep set.
func TestRegistryExtensions(t *testing.T) {
	r := DefaultRegistry()
	for _, name := range []string{"RTM", "FeFET", "STTRAM-2024", "ReRAM", "Racetrack"} {
		b, err := r.NMM("N6", name, 8, 1<<28)
		if err != nil {
			t.Errorf("NMM with extension %s: %v", name, err)
			continue
		}
		if _, err := b.Build(); err != nil {
			t.Errorf("build NMM/%s: %v", name, err)
		}
	}
}

// TestRegistryMissingRole: a catalog without the fixed SRAM/DRAM roles is
// rejected up front.
func TestRegistryMissingRole(t *testing.T) {
	cat, err := tech.NewCatalog("bare", "1", []tech.Entry{{
		Tech:  tech.Tech{Name: "PCM2", ReadNS: 1, WriteNS: 1, ReadPJPerBit: 1, WritePJPerBit: 1, NonVolatile: true},
		Class: tech.ClassNVM,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewRegistry(cat); err == nil {
		t.Error("catalog without SRAM/DRAM roles accepted")
	}
}
