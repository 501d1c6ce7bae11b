package reuse

import (
	"math"
	"math/rand/v2"
	"reflect"
	"testing"
	"testing/quick"

	"hybridmem/internal/trace"
)

// newLineSketcher returns the single-granularity sketcher these tests
// profile with: 64 B lines, the plain reuse profiler.
func newLineSketcher(t testing.TB) *Sketcher {
	t.Helper()
	s, err := NewSketcher(64)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// touchLines loads one byte range inside each given 64 B line.
func touchLines(s *Sketcher, lines ...uint64) {
	for _, l := range lines {
		s.AccessBatch([]trace.Ref{{Addr: l * 64, Size: 8, Kind: trace.Load}})
	}
}

// hist returns the 64 B access histogram of a newLineSketcher.
func hist(s *Sketcher) Histogram { return s.Sketch().Grans[0].Access }

func TestValidation(t *testing.T) {
	if _, err := NewSketcher(64, 48); err == nil {
		t.Error("a non-power-of-two granularity among valid ones should fail")
	}
	s := newLineSketcher(t).Sketch()
	if len(s.Grans) != 1 || s.Grans[0].Gran != 64 {
		t.Fatalf("NewSketcher(64) captured %+v, want exactly the 64 B granularity", s.Grans)
	}
}

func TestColdAccesses(t *testing.T) {
	p := newLineSketcher(t)
	touchLines(p, 1, 2, 3, 4)
	h := hist(p)
	if h.Cold != 4 || h.Total != 4 || h.Lines != 4 {
		t.Fatalf("histogram = %+v", h)
	}
}

func TestImmediateReuse(t *testing.T) {
	p := newLineSketcher(t)
	touchLines(p, 7, 7, 7)
	h := hist(p)
	if h.Cold != 1 {
		t.Fatalf("cold = %d", h.Cold)
	}
	// Two reuses at distance 0 -> bucket 0.
	if h.Buckets[0] != 2 {
		t.Fatalf("bucket0 = %d", h.Buckets[0])
	}
}

func TestCyclicDistance(t *testing.T) {
	// Cycling over N lines gives distance N-1 on every reuse.
	const n = 8
	p := newLineSketcher(t)
	for rep := 0; rep < 3; rep++ {
		for l := uint64(0); l < n; l++ {
			touchLines(p, l)
		}
	}
	h := hist(p)
	if h.Cold != n {
		t.Fatalf("cold = %d", h.Cold)
	}
	// Distance 7 lands in bucket 2 ([4,8)).
	if h.Buckets[2] != 2*n {
		t.Fatalf("bucket2 = %d, want %d (hist %v)", h.Buckets[2], 2*n, h.Buckets[:5])
	}
	// An 8-line LRU cache captures all reuses; a 4-line one captures none.
	if got := h.HitRate(n); math.Abs(got-float64(2*n)/float64(3*n)) > 1e-12 {
		t.Fatalf("HitRate(%d) = %g", n, got)
	}
	if got := h.HitRate(4); got != 0 {
		t.Fatalf("HitRate(4) = %g, want 0", got)
	}
}

func TestSpanningRefTouchesBothLines(t *testing.T) {
	p := newLineSketcher(t)
	p.AccessBatch([]trace.Ref{{Addr: 60, Size: 8, Kind: trace.Load}}) // lines 0 and 1
	h := hist(p)
	if h.Total != 2 || h.Cold != 2 {
		t.Fatalf("histogram = %+v", h)
	}
}

// naiveDistance computes reuse distances with an explicit LRU stack — the
// oracle for the timestamp-tree implementation.
type naiveDistance struct {
	stack []uint64 // MRU first
	hist  map[uint64]uint64
	cold  uint64
}

func (n *naiveDistance) touch(line uint64) {
	for i, l := range n.stack {
		if l == line {
			if n.hist == nil {
				n.hist = map[uint64]uint64{}
			}
			n.hist[uint64(i)]++
			n.stack = append(n.stack[:i], n.stack[i+1:]...)
			n.stack = append([]uint64{line}, n.stack...)
			return
		}
	}
	n.cold++
	n.stack = append([]uint64{line}, n.stack...)
}

// TestAgainstNaiveStack is a property test: the sketcher's exact
// per-distance counts match an explicit LRU stack on random streams.
func TestAgainstNaiveStack(t *testing.T) {
	f := func(seed uint64, nOps uint16) bool {
		rng := rand.New(rand.NewPCG(seed, 1))
		p := newLineSketcher(t)
		var oracle naiveDistance
		perBucket := map[int]uint64{}
		ops := int(nOps)%500 + 50
		for i := 0; i < ops; i++ {
			line := rng.Uint64N(40)
			touchLines(p, line)
			oracle.touch(line)
		}
		for d, c := range oracle.hist {
			k := 0
			if d > 1 {
				k = 63 - leadingZeros(d)
			}
			perBucket[k] += c
		}
		h := hist(p)
		if h.Cold != oracle.cold {
			return false
		}
		for k, want := range perBucket {
			if h.Buckets[k] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func leadingZeros(x uint64) int {
	n := 0
	for x&(1<<63) == 0 {
		x <<= 1
		n++
	}
	return n
}

// finestCompactions returns how many renumbering passes the finest
// granularity of s has run.
func finestCompactions(s *Sketcher) int { return s.grans[0].compactions }

// TestCompactionBoundaryDistances crosses timestamp compactions with
// exactly-known distances: cycling over n lines yields distance n-1 on every
// reuse. A compaction that loses or reorders a live timestamp miscounts
// these.
func TestCompactionBoundaryDistances(t *testing.T) {
	const n, reps = 2000, 5
	p := newLineSketcher(t)
	for rep := 0; rep < reps; rep++ {
		for l := uint64(0); l < n; l++ {
			touchLines(p, l)
		}
	}
	if c := finestCompactions(p); c < 3 {
		t.Fatalf("stream crossed %d compactions, want at least 3", c)
	}
	h := hist(p)
	if h.Cold != n {
		t.Fatalf("cold = %d, want %d", h.Cold, n)
	}
	if k := bucket(n - 1); h.Buckets[k] != (reps-1)*n {
		t.Fatalf("bucket[%d] = %d, want %d (hist %v)", k, h.Buckets[k], (reps-1)*n, h.Buckets[:16])
	}
}

// TestCompactionBoundaryAgainstNaiveStack is the oracle property test
// across compactions: a long random stream must match the explicit LRU
// stack exactly.
func TestCompactionBoundaryAgainstNaiveStack(t *testing.T) {
	rng := rand.New(rand.NewPCG(1234, 5678))
	p := newLineSketcher(t)
	var oracle naiveDistance
	perBucket := map[int]uint64{}
	for i := 0; i < 20000; i++ {
		line := rng.Uint64N(1500)
		touchLines(p, line)
		oracle.touch(line)
	}
	if c := finestCompactions(p); c < 3 {
		t.Fatalf("stream crossed %d compactions, want at least 3", c)
	}
	for d, c := range oracle.hist {
		perBucket[bucket(d)] += c
	}
	h := hist(p)
	if h.Cold != oracle.cold {
		t.Fatalf("cold = %d, want %d", h.Cold, oracle.cold)
	}
	for k, want := range perBucket {
		if h.Buckets[k] != want {
			t.Fatalf("bucket[%d] = %d, want %d", k, h.Buckets[k], want)
		}
	}
}

// TestDistancePathsAgree checks the popcount scan against the tree walk for
// every touched page at many points of a random stream, whatever the gap
// between a page's timestamp and the clock.
func TestDistancePathsAgree(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 22))
	p := newLineSketcher(t)
	g := &p.grans[0]
	for i := 0; i < 30000; i++ {
		line := rng.Uint64N(3000)
		if rng.Uint64N(4) == 0 {
			line = rng.Uint64N(16) // a hot set keeps some gaps short
		}
		touchLines(p, line)
		if i%997 != 0 {
			continue
		}
		for id, st := range g.pages {
			if st.lastT < 0 {
				continue
			}
			if a, b := g.distanceScan(int(st.lastT)), g.distanceTree(int(st.lastT)); a != b {
				t.Fatalf("after %d refs, page %d: scan %d, tree %d", i+1, id, a, b)
			}
		}
	}
	if c := finestCompactions(p); c < 3 {
		t.Fatalf("stream crossed %d compactions, want at least 3", c)
	}
}

// TestAccessBatchMatchesAccess replays the same stream as one-reference
// batches and as one whole batch and requires identical sketches.
func TestAccessBatchMatchesAccess(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	refs := make([]trace.Ref, 3000)
	for i := range refs {
		refs[i] = trace.Ref{
			Addr: rng.Uint64N(1 << 16),
			Size: uint32(rng.Uint64N(128)), // includes 0 and line-spanning sizes
			Kind: trace.Kind(rng.Uint64N(2)),
		}
	}
	one, batch := newLineSketcher(t), newLineSketcher(t)
	for i := range refs {
		one.AccessBatch(refs[i : i+1])
	}
	batch.AccessBatch(refs)
	if so, sb := one.Sketch(), batch.Sketch(); !reflect.DeepEqual(so, sb) {
		t.Fatalf("per-ref and batch sketches differ:\n%+v\n%+v", so, sb)
	}
}

// TestAccessBatchZeroAlloc pins the sketch hot loop — every design
// granularity, loads and stores, whole and one-reference batches — at zero
// allocations once the footprint is established (page and stored-line map
// keys present, timestamp capacity sized by a few warm-up passes).
func TestAccessBatchZeroAlloc(t *testing.T) {
	s, err := NewSketcher()
	if err != nil {
		t.Fatal(err)
	}
	refs := make([]trace.Ref, 64)
	for i := range refs {
		refs[i] = trace.Ref{Addr: uint64(i) * 64, Size: 8, Kind: trace.Kind(i % 3 / 2)}
	}
	for i := 0; i < 4; i++ {
		s.AccessBatch(refs) // establish the footprint
	}
	if n := testing.AllocsPerRun(100, func() {
		s.AccessBatch(refs)
		s.AccessBatch(refs[len(refs)-1:])
	}); n != 0 {
		t.Fatalf("Sketcher allocated %v times per run on a warm footprint", n)
	}
}

func TestHitRateMonotone(t *testing.T) {
	p := newLineSketcher(t)
	rng := rand.New(rand.NewPCG(9, 9))
	for i := 0; i < 20000; i++ {
		touchLines(p, rng.Uint64N(256))
	}
	h := hist(p)
	prev := -1.0
	for k := 0; k < 12; k++ {
		hr := h.HitRate(1 << k)
		if hr < prev-1e-12 {
			t.Fatalf("hit rate not monotone at %d lines: %g < %g", 1<<k, hr, prev)
		}
		prev = hr
	}
	if h.HitRate(1<<12) < 0.9 {
		t.Fatalf("cache bigger than footprint should approach hit rate 1, got %g", h.HitRate(1<<12))
	}
}

func TestWorkingSet(t *testing.T) {
	p := newLineSketcher(t)
	// Cycle over 100 lines: working set for any positive target is the
	// first power of two >= 100.
	for rep := 0; rep < 5; rep++ {
		for l := uint64(0); l < 100; l++ {
			touchLines(p, l)
		}
	}
	h := hist(p)
	if ws := h.WorkingSet(0.5); ws != 128 {
		t.Fatalf("WorkingSet(0.5) = %d, want 128", ws)
	}
	// All-cold stream has no reachable target.
	q := newLineSketcher(t)
	touchLines(q, 1, 2, 3)
	if ws := hist(q).WorkingSet(0.5); ws != 0 {
		t.Fatalf("all-cold working set = %d, want 0", ws)
	}
}

func TestMeanDistance(t *testing.T) {
	p := newLineSketcher(t)
	touchLines(p, 1, 1) // distance 0
	h := hist(p)
	if h.MeanDistance() != 1 { // bucket 0 midpoint (0+2)/2
		t.Fatalf("mean = %g", h.MeanDistance())
	}
	var empty Histogram
	if empty.MeanDistance() != 0 {
		t.Fatal("empty mean should be 0")
	}
}

// TestCoScalingInvariance is the design-level property the co-scaling
// argument rests on: a self-similar access pattern scaled down by k has the
// same hit rate at cache size C/k as the original at C.
func TestCoScalingInvariance(t *testing.T) {
	run := func(footLines uint64) Histogram {
		p := newLineSketcher(t)
		rng := rand.New(rand.NewPCG(42, 42))
		// Self-similar mix: 70% hot eighth, 30% uniform.
		for i := 0; i < 40000; i++ {
			var l uint64
			if rng.Uint64N(10) < 7 {
				l = rng.Uint64N(footLines / 8)
			} else {
				l = rng.Uint64N(footLines)
			}
			touchLines(p, l)
		}
		return hist(p)
	}
	big := run(4096)
	small := run(512) // scaled down 8x
	for _, c := range []uint64{64, 256, 1024} {
		hb := big.HitRate(c)
		hs := small.HitRate(c / 8)
		if math.Abs(hb-hs) > 0.05 {
			t.Errorf("co-scaling violated at C=%d: big %g vs small %g", c, hb, hs)
		}
	}
}
