package exp

import (
	"context"
	"testing"

	"hybridmem/internal/design"
	"hybridmem/internal/tech"
	"hybridmem/internal/trace"
)

// TestEvaluateBatchMatchesScalarReplay is the end-to-end half of the batch
// equivalence property: evaluating a design point through the batched
// replay engine (EvaluateCtx) must produce a model.Evaluation identical to
// replaying the same packed boundary stream one reference at a time, as
// one-reference batches through the Sink interface.
func TestEvaluateBatchMatchesScalarReplay(t *testing.T) {
	s := suite(t)
	for _, wp := range s.Profiles {
		for _, backend := range []design.Backend{
			design.NMM(design.NConfigs[0], tech.PCM, testConfig.Scale, wp.Footprint),
			design.FourLC(design.EHConfigs[0], tech.EDRAM, testConfig.Scale, wp.Footprint),
		} {
			batched, err := wp.Evaluate(backend)
			if err != nil {
				t.Fatal(err)
			}

			built, err := backend.Build()
			if err != nil {
				t.Fatal(err)
			}
			var sink trace.Sink = built
			wp.Boundary.Batches(nil, func(refs []trace.Ref) error {
				for i := range refs {
					sink.AccessBatch(refs[i : i+1])
				}
				return nil
			})
			built.Flush()
			scalar, err := wp.EvaluateProfile(backend.Name, built.Snapshot())
			if err != nil {
				t.Fatal(err)
			}

			if batched != scalar {
				t.Errorf("%s/%s: batched evaluation diverges from scalar replay:\nbatched %+v\nscalar  %+v",
					wp.Name, backend.Name, batched, scalar)
			}
		}
	}
}

// TestBoundaryStorePacking asserts the packed boundary store's acceptance
// bar on real profiled workloads (not just synthetic streams): at most 60%
// of the raw 16-byte-per-reference footprint.
func TestBoundaryStorePacking(t *testing.T) {
	s := suite(t)
	for _, wp := range s.Profiles {
		packed, raw := wp.Boundary.PackedBytes(), wp.Boundary.RawBytes()
		if raw == 0 {
			t.Fatalf("%s: empty boundary store", wp.Name)
		}
		if packed*100 > raw*60 {
			t.Errorf("%s: packed boundary %d bytes is %.0f%% of raw %d bytes, want <=60%%",
				wp.Name, packed, 100*float64(packed)/float64(raw), raw)
		}
	}
}

// TestParallelBatchedReplayRace drives concurrent batched replays of shared
// workload profiles through the worker pool — the exact sharing pattern the
// evaluation server relies on (one immutable packed stream, many decoding
// workers borrowing pooled buffers). Run under -race in CI, it guards the
// claim that Packed is safe for concurrent readers.
func TestParallelBatchedReplayRace(t *testing.T) {
	s := suite(t)
	var jobs []Job
	for _, wp := range s.Profiles {
		for _, cfg := range design.NConfigs[:4] {
			jobs = append(jobs, Job{WP: wp, B: design.NMM(cfg, tech.PCM, testConfig.Scale, wp.Footprint)})
		}
	}
	evs, err := RunJobs(context.Background(), jobs, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != len(jobs) {
		t.Fatalf("got %d evaluations, want %d", len(evs), len(jobs))
	}
	for i, ev := range evs {
		if ev.NormTime <= 0 {
			t.Errorf("job %d: non-positive normalized time %v", i, ev.NormTime)
		}
	}
}
