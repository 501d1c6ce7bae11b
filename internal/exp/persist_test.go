package exp

import (
	"context"
	"encoding/json"
	"testing"

	"hybridmem/internal/design"
	"hybridmem/internal/reuse"
	"hybridmem/internal/store"
	"hybridmem/internal/tech"
	"hybridmem/internal/trace"
	"hybridmem/internal/workload"
	"hybridmem/internal/workload/catalog"
)

// persistProfile profiles CG at the shrunken test scale.
func persistProfile(t testing.TB) *WorkloadProfile { return profileCG(t, 2048) }

// profileCG profiles CG at workload scale ws.
func profileCG(t testing.TB, ws uint64) *WorkloadProfile {
	t.Helper()
	w, err := catalog.New("CG", workload.Options{Scale: ws})
	if err != nil {
		t.Fatal(err)
	}
	wp, err := ProfileWorkload(w, 64, DefaultDilution)
	if err != nil {
		t.Fatal(err)
	}
	return wp
}

// TestManifestRestoreEvaluatesIdentically is the persist-once/reopen
// contract: a profile round-tripped through JSON manifest + an on-disk
// content-addressed stream evaluates every design family bit-identically
// to the original, with zero re-profiling and zero reference replay.
func TestManifestRestoreEvaluatesIdentically(t *testing.T) {
	wp := persistProfile(t)

	meta, err := json.Marshal(wp.Manifest())
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.PutStream("profile:CG", wp.Boundary, meta); err != nil {
		t.Fatal(err)
	}

	boundary, gotMeta, ok, err := st.GetStream("profile:CG")
	if err != nil || !ok {
		t.Fatalf("GetStream: ok=%v err=%v", ok, err)
	}
	var m ProfileManifest
	if err := json.Unmarshal(gotMeta, &m); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreProfile(&m, boundary, nil)
	if err != nil {
		t.Fatal(err)
	}

	if restored.TotalRefs != wp.TotalRefs || restored.Footprint != wp.Footprint ||
		restored.RefTime != wp.RefTime {
		t.Fatalf("restored identity diverges: %+v", restored)
	}
	if got, want := restored.ReferenceEvaluation(), wp.ReferenceEvaluation(); got != want {
		t.Fatalf("reference evaluation diverges:\n got %+v\nwant %+v", got, want)
	}
	// The sketch travels in the manifest: a restored profile answers
	// analytic queries identically with zero replay.
	if restored.Sketch == nil {
		t.Fatal("restored profile lost its sketch")
	}
	origPred, err := wp.Predictor()
	if err != nil {
		t.Fatal(err)
	}
	restPred, err := restored.Predictor()
	if err != nil {
		t.Fatal(err)
	}
	analyticBackend := design.DefaultRegistry().NMMWith(design.NConfigs[5], tech.PCM, 64, wp.Footprint)
	wantPred, err := origPred.Predict(analyticBackend)
	if err != nil {
		t.Fatal(err)
	}
	gotPred, err := restPred.Predict(analyticBackend)
	if err != nil {
		t.Fatal(err)
	}
	if gotPred.Eval != wantPred.Eval || gotPred.LifetimeYears != wantPred.LifetimeYears {
		t.Fatalf("restored analytic prediction diverges:\n got %+v\nwant %+v", gotPred.Eval, wantPred.Eval)
	}
	ctx := context.Background()
	backends := []design.Backend{
		design.DefaultRegistry().FourLCWith(design.EHConfigs[3], tech.EDRAM, 64, wp.Footprint),
		design.DefaultRegistry().NMMWith(design.NConfigs[5], tech.PCM, 64, wp.Footprint),
		design.DefaultRegistry().FourLCNVMWith(design.EHConfigs[3], tech.EDRAM, tech.PCM, 64, wp.Footprint),
	}
	for _, b := range backends {
		want, err := wp.EvaluateCtx(ctx, b)
		if err != nil {
			t.Fatalf("%s original: %v", b.Name, err)
		}
		got, err := restored.EvaluateCtx(ctx, b)
		if err != nil {
			t.Fatalf("%s restored: %v", b.Name, err)
		}
		if got != want {
			t.Fatalf("%s: restored profile diverges:\n got %+v\nwant %+v", b.Name, got, want)
		}
	}
}

// TestRestoreProfileRejectsMismatches pins the fail-fast contract on a
// stream that does not match its manifest.
func TestRestoreProfileRejectsMismatches(t *testing.T) {
	wp := persistProfile(t)
	m := wp.Manifest()

	if _, err := RestoreProfile(&ProfileManifest{Version: 99}, wp.Boundary, nil); err == nil {
		t.Fatal("future manifest version accepted")
	}
	if _, err := RestoreProfile(m, nil, nil); err == nil {
		t.Fatal("nil boundary accepted")
	}
	short := &trace.Packed{}
	short.Access(trace.Ref{Addr: 1, Size: 64})
	if _, err := RestoreProfile(m, short, nil); err == nil {
		t.Fatal("length-mismatched boundary accepted")
	}
}

// manifestJSON returns wp's manifest as the store holds it, and a decoder
// that yields an independent copy of it per call.
func manifestJSON(t testing.TB, wp *WorkloadProfile) ([]byte, func() *ProfileManifest) {
	t.Helper()
	meta, err := json.Marshal(wp.Manifest())
	if err != nil {
		t.Fatal(err)
	}
	return meta, func() *ProfileManifest {
		var m ProfileManifest
		if err := json.Unmarshal(meta, &m); err != nil {
			t.Fatal(err)
		}
		return &m
	}
}

// widenAccessHistograms gives every access histogram of m's sketch 70
// buckets, with 2^40 accesses in bucket 65.
func widenAccessHistograms(m *ProfileManifest) {
	for i := range m.Sketch.Grans {
		h := &m.Sketch.Grans[i].Access
		h.Buckets = append(h.Buckets, make([]uint64, 70-len(h.Buckets))...)
		h.Buckets[65] = 1 << 40
	}
}

// TestRestoreProfileRejectsHostileSketch: a manifest without a sketch, or
// whose sketch breaks the capture invariants (48 buckets per histogram,
// buckets plus cold summing to total, the seven design granularities), is
// refused, so a restore path re-profiles instead of predicting from it.
// The first case is a sketch that restored and predicted NMM/N6/PCM at an
// AMAT of ~5e14 ns before the check existed.
func TestRestoreProfileRejectsHostileSketch(t *testing.T) {
	wp := persistProfile(t)
	_, decode := manifestJSON(t, wp)
	if _, err := RestoreProfile(decode(), wp.Boundary, nil); err != nil {
		t.Fatalf("pristine manifest refused: %v", err)
	}
	cases := map[string]func(m *ProfileManifest){
		"70 access buckets": widenAccessHistograms,
		"47 dirty buckets": func(m *ProfileManifest) {
			h := &m.Sketch.Grans[3].Dirty
			h.Buckets = h.Buckets[:47]
		},
		"access count off by one": func(m *ProfileManifest) { m.Sketch.Grans[0].Access.Buckets[2]++ },
		"dirty total off by one":  func(m *ProfileManifest) { m.Sketch.Grans[6].Dirty.Total++ },
		"bucket sum wraps to total": func(m *ProfileManifest) {
			h := &m.Sketch.Grans[1].Access
			h.Buckets[0] += 1 << 63
			h.Buckets[1] += 1 << 63
		},
		"future sketch version": func(m *ProfileManifest) { m.Sketch.Version++ },
		"no sketch":             func(m *ProfileManifest) { m.Sketch = nil },
		"no granularities":      func(m *ProfileManifest) { m.Sketch.Grans = nil },
		"4 KB granularity missing": func(m *ProfileManifest) {
			m.Sketch.Grans = m.Sketch.Grans[:len(m.Sketch.Grans)-1]
		},
	}
	for name, corrupt := range cases {
		m := decode()
		corrupt(m)
		if _, err := RestoreProfile(m, wp.Boundary, nil); err == nil {
			t.Errorf("%s: restored", name)
		}
	}
}

// FuzzRestoreProfile feeds arbitrary manifest JSON to RestoreProfile with
// the profile's real boundary stream. It must never panic, and a manifest
// it accepts carries only histograms that hold the capture invariants and
// a profile that predicts without panicking. The seed is a real CG
// manifest, at a workload scale that profiles fast under fuzzing's
// coverage instrumentation.
func FuzzRestoreProfile(f *testing.F) {
	wp := profileCG(f, 16384)
	meta, decode := manifestJSON(f, wp)
	f.Add(meta)
	hostile := decode()
	widenAccessHistograms(hostile)
	b, err := json.Marshal(hostile)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(b)
	nmm := design.DefaultRegistry().NMMWith(design.NConfigs[5], tech.PCM, 64, wp.Footprint)
	f.Fuzz(func(t *testing.T, data []byte) {
		var m ProfileManifest
		if json.Unmarshal(data, &m) != nil {
			return
		}
		restored, err := RestoreProfile(&m, wp.Boundary, nil)
		if err != nil {
			return
		}
		for _, g := range m.Sketch.Grans {
			for _, h := range []reuse.Histogram{g.Access, g.Dirty} {
				sum := h.Cold
				for _, n := range h.Buckets {
					if sum+n < sum {
						t.Fatalf("accepted %d B histogram whose counts overflow", g.Gran)
					}
					sum += n
				}
				if len(h.Buckets) != reuse.HistBuckets || sum != h.Total {
					t.Fatalf("accepted %d B histogram with %d buckets summing to %d, total %d",
						g.Gran, len(h.Buckets), sum, h.Total)
				}
			}
		}
		if p, err := restored.Predictor(); err == nil {
			p.Predict(nmm)
		}
	})
}
