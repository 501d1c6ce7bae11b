package obs

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram("test.hist_buckets", "")
	h.Observe(0) // bucket 0
	h.Observe(1) // bucket 1: [1,2)
	h.Observe(2) // bucket 2: [2,4)
	h.Observe(3) // bucket 2
	h.Observe(4) // bucket 3: [4,8)

	s := h.Snapshot()
	want := map[int]uint64{0: 1, 1: 1, 2: 2, 3: 1}
	for i, n := range s.Buckets {
		if n != want[i] {
			t.Errorf("bucket %d = %d, want %d", i, n, want[i])
		}
	}
	if s.Count != 5 || s.Sum != 10 || s.Max != 4 {
		t.Errorf("count/sum/max = %d/%d/%d, want 5/10/4", s.Count, s.Sum, s.Max)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram("test.hist_quantile", "")
	for i := uint64(1); i <= 1000; i++ {
		h.Observe(i)
	}
	// Log2 bucket interpolation carries at most one bucket (2x) of error.
	for _, tc := range []struct{ q, exact float64 }{{0.5, 500}, {0.9, 900}, {0.99, 990}} {
		got := h.Quantile(tc.q)
		if got < tc.exact/2 || got > tc.exact*2 {
			t.Errorf("Quantile(%v) = %v, want within 2x of %v", tc.q, got, tc.exact)
		}
	}
	if got := h.Quantile(1); got != 1000 {
		t.Errorf("Quantile(1) = %v, want exact max 1000", got)
	}
	var empty Histogram
	if got := empty.Quantile(0.5); got != 0 {
		t.Errorf("empty Quantile = %v, want 0", got)
	}
}

func TestHistogramObserveDurationClampsNegative(t *testing.T) {
	h := NewHistogram("test.hist_clamp", "")
	h.ObserveDuration(-time.Second)
	s := h.Snapshot()
	if s.Buckets[0] != 1 || s.Max != 0 {
		t.Errorf("negative duration: bucket0=%d max=%d, want 1/0", s.Buckets[0], s.Max)
	}
}

func TestNewHistogramIdempotentPerName(t *testing.T) {
	a := NewHistogram("test.hist_idem", "first help")
	b := NewHistogram("test.hist_idem", "second help")
	if a != b {
		t.Fatal("same name returned distinct histograms")
	}
	a.Observe(7)
	if b.Snapshot().Count != 1 {
		t.Fatal("observations not shared across the idempotent handle")
	}
}

// TestHistogramParallelObserve runs in the CI race pass: Observe is
// lock-free and must stay exact under contention.
func TestHistogramParallelObserve(t *testing.T) {
	h := NewHistogram("test.hist_parallel", "")
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(uint64(w*per + i))
				_ = h.Snapshot() // concurrent reads must be race-free too
			}
		}(w)
	}
	wg.Wait()
	if got := h.Snapshot().Count; got != workers*per {
		t.Fatalf("count = %d, want %d", got, workers*per)
	}
}

func TestCounterVecOverflowLabel(t *testing.T) {
	v := NewCounterVec("test.vec_overflow", "", "design")
	for i := 0; i < maxLabelValues+10; i++ {
		v.With(fmt.Sprintf("design-%d", i)).Add(1)
	}
	snap := v.vec.snapshot()
	if len(snap) > maxLabelValues+1 {
		t.Fatalf("vector grew to %d children, bound is %d (+overflow)", len(snap), maxLabelValues)
	}
	if c, ok := snap[overflowLabel]; !ok || c.Value() == 0 {
		t.Fatal("overflow observations were not absorbed by the overflow label")
	}
}

// TestVecParallelWith runs in the CI race pass: lazy child creation under
// concurrent With must neither race nor lose observations.
func TestVecParallelWith(t *testing.T) {
	cv := NewCounterVec("test.vec_parallel", "", "outcome")
	hv := NewLatencyHistogramVec("test.vec_hist_parallel", "", "outcome")
	labels := []string{"hit", "miss", "dedup", "timeout"}
	const workers, per = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				l := labels[(w+i)%len(labels)]
				cv.With(l).Add(1)
				hv.With(l).ObserveDuration(time.Duration(i) * time.Microsecond)
			}
		}(w)
	}
	wg.Wait()
	var total uint64
	for _, c := range cv.vec.snapshot() {
		total += c.Value()
	}
	if total != workers*per {
		t.Fatalf("counter vec total = %d, want %d", total, workers*per)
	}
	var hTotal uint64
	for _, h := range hv.vec.snapshot() {
		hTotal += h.Snapshot().Count
	}
	if hTotal != workers*per {
		t.Fatalf("histogram vec total = %d, want %d", hTotal, workers*per)
	}
}
