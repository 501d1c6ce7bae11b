package multicore

import (
	"reflect"
	"testing"

	"hybridmem/internal/cache"
	"hybridmem/internal/workload"
	"hybridmem/internal/workload/catalog"
)

// tinyWL builds a small workload by name.
func tinyWL(t testing.TB, name string) workload.Workload {
	t.Helper()
	w, err := catalog.New(name, workload.Options{Scale: 4096})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Config{}, nil, nil); err == nil {
		t.Error("no workloads should fail")
	}
	for _, cfg := range []Config{{Scale: 3}, {Scale: 128}} {
		if _, err := Run(cfg, []workload.Workload{tinyWL(t, "CG"), tinyWL(t, "SP")}, nil); err == nil {
			t.Errorf("invalid scale %+v should fail", cfg)
		}
	}
}

func TestSingleCoreMatchesWorkload(t *testing.T) {
	w := tinyWL(t, "CG")
	res, err := Run(Config{Scale: 64}, []workload.Workload{w}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cores) != 1 {
		t.Fatalf("cores = %d", len(res.Cores))
	}
	c := res.Cores[0]
	if c.Refs == 0 || c.Refs != res.TotalRefs {
		t.Fatalf("refs = %d / total %d", c.Refs, res.TotalRefs)
	}
	// Private caches filter most traffic.
	if c.Forwarded >= c.Refs {
		t.Fatalf("forwarded %d >= refs %d", c.Forwarded, c.Refs)
	}
	// Traffic conservation: L3 load requests = sum of forwarded loads...
	// at minimum, L3 accesses equal total forwarded requests.
	if res.L3.Accesses() != c.Forwarded {
		t.Fatalf("L3 accesses %d != forwarded %d", res.L3.Accesses(), c.Forwarded)
	}
}

// TestDeterministicInterleave pins a CG+Hashing chip's exact statistics:
// the interleave must not depend on goroutine scheduling, and the values
// must not move when the delivery mechanics change.
func TestDeterministicInterleave(t *testing.T) {
	want := Result{
		Cores: []CoreResult{
			{
				Name: "core0:CG",
				Refs: 320137,
				L1: cache.Stats{Loads: 298479, Stores: 21658, LoadHits: 191538, StoreHits: 15824,
					LoadBits: 16238688, StoreBits: 1386112, FillBits: 57740800,
					WriteBacks: 7084, Evictions: 112767, FlushedDirt: 4},
				L2: cache.Stats{Loads: 112775, Stores: 7088, LoadHits: 28956, StoreHits: 7088,
					LoadBits: 57740800, StoreBits: 3629056, FillBits: 42915328,
					WriteBacks: 2685, Evictions: 83755, FlushedDirt: 32},
				Forwarded: 86536,
			},
			{
				Name: "core1:Hashing",
				Refs: 146583,
				L1: cache.Stats{Loads: 27799, Stores: 118784, LoadHits: 6775, StoreHits: 104448,
					LoadBits: 2837376, StoreBits: 7864320, FillBits: 18104320,
					WriteBacks: 18421, Evictions: 35352},
				L2: cache.Stats{Loads: 35360, Stores: 18421, LoadHits: 3426, StoreHits: 18419,
					LoadBits: 18104320, StoreBits: 9431552, FillBits: 16351232,
					WriteBacks: 18335, Evictions: 31872},
				Forwarded: 50271,
			},
		},
		L3: cache.Stats{Loads: 115755, Stores: 21052, LoadHits: 80233, StoreHits: 21052,
			LoadBits: 59266560, StoreBits: 10778624, FillBits: 18187264,
			WriteBacks: 17579, Evictions: 30402, FlushedDirt: 805},
		Memory: cache.Stats{Loads: 35522, Stores: 18384, LoadHits: 35522, StoreHits: 18384,
			LoadBits: 18187264, StoreBits: 9412608},
		TotalRefs: 466720,
	}
	for run := 0; run < 2; run++ {
		ws := []workload.Workload{tinyWL(t, "CG"), tinyWL(t, "Hashing")}
		got, err := Run(Config{Scale: 64, BatchRefs: 32}, ws, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d:\ngot  %+v\nwant %+v", run, got, want)
		}
	}
}

// TestContentionDegradesL3 is the package's reason to exist: adding cores
// that share the L3 must reduce its hit rate relative to a solo run at the
// same total capacity.
func TestContentionDegradesL3(t *testing.T) {
	cfg := Config{Scale: 64}
	solo, err := Run(cfg, []workload.Workload{tinyWL(t, "CG")}, nil)
	if err != nil {
		t.Fatal(err)
	}
	quad, err := Run(cfg, []workload.Workload{
		tinyWL(t, "CG"), tinyWL(t, "CG"), tinyWL(t, "CG"), tinyWL(t, "CG"),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if quad.L3HitRate() >= solo.L3HitRate() {
		t.Fatalf("contention did not degrade L3: solo %.3f, 4 cores %.3f",
			solo.L3HitRate(), quad.L3HitRate())
	}
	if len(quad.Cores) != 4 {
		t.Fatalf("cores = %d", len(quad.Cores))
	}
	// All cores completed their full streams.
	for _, c := range quad.Cores {
		if c.Refs == 0 {
			t.Fatalf("%s starved", c.Name)
		}
	}
}

// TestEffectiveShare verifies the capacity-equivalence probe returns a
// plausible (smaller-than-total) share for a contended chip.
func TestEffectiveShare(t *testing.T) {
	cfg := Config{Scale: 64}
	quad, err := Run(cfg, []workload.Workload{
		tinyWL(t, "CG"), tinyWL(t, "CG"), tinyWL(t, "CG"), tinyWL(t, "CG"),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	share, l3Size, err := EffectiveShare(cfg, func() workload.Workload { return tinyWL(t, "CG") }, quad.L3HitRate())
	if err != nil {
		t.Fatal(err)
	}
	// The shared L3 is the reference machine's 20MB at the scale.
	if l3Size != 20<<20/64 {
		t.Fatalf("shared L3 = %d B, want %d", l3Size, 20<<20/64)
	}
	if share == 0 || share > l3Size {
		t.Fatalf("effective share = %d", share)
	}
	// Four identical co-runners must shrink the effective share below
	// the full capacity.
	if share >= l3Size {
		t.Fatalf("share %d did not shrink", share)
	}
}

// TestBatchSizeChangesInterleaveOnly: different batch sizes reorder the
// interleave but never lose references.
func TestBatchSizeChangesInterleaveOnly(t *testing.T) {
	for _, batch := range []int{1, 16, 1024} {
		ws := []workload.Workload{tinyWL(t, "CG"), tinyWL(t, "SP")}
		res, err := Run(Config{Scale: 64, BatchRefs: batch}, ws, nil)
		if err != nil {
			t.Fatal(err)
		}
		var want uint64
		for _, c := range res.Cores {
			want += c.Refs
		}
		if res.TotalRefs != want {
			t.Fatalf("batch %d: refs lost (%d vs %d)", batch, res.TotalRefs, want)
		}
	}
}
