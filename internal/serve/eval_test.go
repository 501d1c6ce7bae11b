package serve

import (
	"context"
	"testing"

	"hybridmem/internal/tech"
)

// TestProfileCacheBound pins the profile cache's LRU bound: with room for
// one profile, alternating CG and BT reference requests re-profile on every
// alternation; with room for two, both stay resident after the first pass.
func TestProfileCacheBound(t *testing.T) {
	ref := DesignSpec{Family: "reference"}
	cg, bt := workloadRequest(t, "CG", ref, nil), workloadRequest(t, "BT", ref, nil)
	for _, tc := range []struct {
		maxProfiles int
		want        []uint64 // ProfilesRun after each request
	}{
		{1, []uint64{1, 2, 3, 4}},
		{2, []uint64{1, 2, 2, 2}},
	} {
		ev := NewEvaluator(tc.maxProfiles, nil)
		for i, r := range []*EvalRequest{cg, bt, cg, bt} {
			if _, err := ev.Evaluate(context.Background(), r); err != nil {
				t.Fatal(err)
			}
			if got := ev.ProfilesRun(); got != tc.want[i] {
				t.Fatalf("bound %d, request %d (%s): %d profiles run, want %d",
					tc.maxProfiles, i, r.Workload, got, tc.want[i])
			}
		}
	}
}

// overrideOf is a tech_overrides map replacing the builtin entry name with
// its own characterization after edit.
func overrideOf(name string, edit func(*TechSpec)) map[string]TechSpec {
	t := tech.Builtin().MustTech(name)
	s := TechSpec{
		ReadNS: t.ReadNS, WriteNS: t.WriteNS,
		ReadPJPerBit: t.ReadPJPerBit, WritePJPerBit: t.WritePJPerBit,
		StaticWPerGB: t.StaticWPerGB, StaticWFixed: t.StaticWFixed,
		NonVolatile: t.NonVolatile,
	}
	edit(&s)
	return map[string]TechSpec{name: s}
}

// TestProfileKeyFollowsStreamShapingTechs: overriding a technology that
// does not shape the profiled stream (eDRAM, absent from NMM/N6/PCM) reuses
// the stock request's profile and replay snapshot, while an override of an
// SRAM prefix level or of the reference DRAM profiles afresh.
func TestProfileKeyFollowsStreamShapingTechs(t *testing.T) {
	ev := NewEvaluator(0, nil)
	evaluate := func(overrides map[string]TechSpec) *EvalResult {
		t.Helper()
		r := workloadRequest(t, "CG", DesignSpec{Family: "NMM", Config: "N6", NVM: "PCM"}, nil)
		r.TechOverrides = overrides
		if apiErr := r.Normalize(); apiErr != nil {
			t.Fatal(apiErr)
		}
		res, err := ev.Evaluate(context.Background(), r)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	stock := evaluate(nil)
	for _, scale := range []float64{2, 3} {
		res := evaluate(overrideOf("eDRAM", func(s *TechSpec) { s.StaticWPerGB *= scale }))
		if res.Key == stock.Key {
			t.Fatal("an eDRAM override kept the stock result key")
		}
		if res.Metrics["edp"] != stock.Metrics["edp"] {
			t.Fatalf("an eDRAM override moved NMM/N6/PCM's EDP: %g vs %g", res.Metrics["edp"], stock.Metrics["edp"])
		}
	}
	if p, r := ev.ProfilesRun(), ev.Replays(); p != 1 || r != 1 {
		t.Fatalf("stock plus two eDRAM overrides: %d profiles, %d replays, want 1 and 1", p, r)
	}

	evaluate(overrideOf("SRAM-L3", func(s *TechSpec) { s.ReadNS *= 2 }))
	if p := ev.ProfilesRun(); p != 2 {
		t.Fatalf("an SRAM-L3 override ran %d profiles in total, want 2", p)
	}
	evaluate(overrideOf("DRAM", func(s *TechSpec) { s.StaticWPerGB *= 2 }))
	if p := ev.ProfilesRun(); p != 3 {
		t.Fatalf("a DRAM override ran %d profiles in total, want 3", p)
	}
}
