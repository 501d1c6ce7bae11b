// Package reuse computes LRU stack (reuse) distance histograms over
// reference streams.
//
// The reuse distance of an access is the number of distinct cache lines
// touched since the previous access to the same line; an LRU cache of C
// lines hits exactly the accesses with distance < C. Reuse histograms
// therefore predict hit rates for every cache size at once, and they are
// the formal basis of this repository's co-scaling argument (DESIGN.md):
// scaling footprints and capacities together preserves the distance
// distribution relative to capacity.
//
// The implementation is the classic O(log n)-per-access algorithm: a
// Fenwick tree over access timestamps holds one bit per currently-resident
// line at its most recent access time; the distance of a reuse is the
// number of set bits after the line's previous timestamp. Sketcher runs it
// at one or more line granularities in a single pass; a single-granularity
// Sketcher is the plain reuse profiler.
package reuse

import (
	"math"
	"math/bits"
)

// fenwick is a binary indexed tree over access timestamps.
type fenwick struct {
	tree []int64
}

// fenwickMinSpan is the smallest tree span allocated on first growth.
const fenwickMinSpan = 1024

// grow ensures position n is addressable, doubling capacity so the span
// stays a power of two. That invariant matters for correctness, not just
// speed: update chains (j += j&(-j)) climb to the root, and with a
// power-of-two span the root is always in range, so no chain is ever
// truncated. On growth only the new roots' ranges cross old content, and
// each covers the entire populated prefix, so it inherits the old root.
func (f *fenwick) grow(n int) {
	if len(f.tree) >= n+1 {
		return
	}
	span := fenwickMinSpan
	for span < n {
		span <<= 1
	}
	t := make([]int64, span+1)
	copy(t, f.tree)
	if old := len(f.tree) - 1; old > 0 {
		for s := old << 1; s <= span; s <<= 1 {
			t[s] = t[s>>1]
		}
	}
	f.tree = t
}

// add adds delta at position i (1-based internally).
func (f *fenwick) add(i int, delta int64) {
	f.grow(i + 1)
	for j := i + 1; j < len(f.tree); j += j & (-j) {
		f.tree[j] += delta
	}
}

// sum returns the prefix sum over positions [0, i].
func (f *fenwick) sum(i int) int64 {
	if i+1 >= len(f.tree) {
		i = len(f.tree) - 2
	}
	var s int64
	for j := i + 1; j > 0; j -= j & (-j) {
		s += f.tree[j]
	}
	return s
}

// bucket maps a finite reuse distance to its histogram bucket index:
// bucket 0 covers distances 0 and 1, bucket k covers [2^k, 2^(k+1)).
func bucket(d uint64) int {
	if d <= 1 {
		return 0
	}
	k := bits.Len64(d) - 1
	if k > 47 {
		k = 47
	}
	return k
}

// Histogram is one reuse-distance histogram of a Sketch. The JSON tags
// define the persisted sketch schema (FORMATS.md); empty buckets marshal as
// an explicit array so restored histograms compare equal.
type Histogram struct {
	// Buckets[k] counts accesses with reuse distance in [2^k, 2^(k+1))
	// (bucket 0 covers distances 0 and 1).
	Buckets []uint64 `json:"buckets"`
	// Cold counts first-touch accesses (infinite distance).
	Cold uint64 `json:"cold"`
	// Lines is the number of distinct lines touched.
	Lines uint64 `json:"lines"`
	// Total is the total line-accesses profiled.
	Total uint64 `json:"total"`
}

// HitRate estimates the hit rate of a fully-associative LRU cache holding
// cacheLines lines: the fraction of accesses with reuse distance strictly
// below cacheLines. Bucket boundaries interpolate linearly.
func (h Histogram) HitRate(cacheLines uint64) float64 {
	if h.Total == 0 {
		return 0
	}
	var hits float64
	for k, n := range h.Buckets {
		if n == 0 {
			continue
		}
		lo := uint64(1) << uint(k) // bucket k spans [2^k, 2^(k+1)), except k=0 spans [0,2)
		if k == 0 {
			lo = 0
		}
		hi := uint64(1) << uint(k+1)
		switch {
		case cacheLines >= hi:
			hits += float64(n)
		case cacheLines <= lo:
			// no hits from this bucket
		default:
			frac := float64(cacheLines-lo) / float64(hi-lo)
			hits += float64(n) * frac
		}
	}
	return hits / float64(h.Total)
}

// WorkingSet returns the smallest cache size (in lines, a power of two)
// achieving at least the target hit rate, or 0 if unreachable (e.g. all
// accesses are cold).
func (h Histogram) WorkingSet(target float64) uint64 {
	for k := 0; k <= 47; k++ {
		c := uint64(1) << uint(k)
		if h.HitRate(c) >= target {
			return c
		}
	}
	return 0
}

// MeanDistance returns the mean finite reuse distance (bucket midpoints).
func (h Histogram) MeanDistance() float64 {
	var sum, n float64
	for k, c := range h.Buckets {
		if c == 0 {
			continue
		}
		lo := math.Exp2(float64(k))
		if k == 0 {
			lo = 0
		}
		mid := (lo + math.Exp2(float64(k+1))) / 2
		sum += mid * float64(c)
		n += float64(c)
	}
	if n == 0 {
		return 0
	}
	return sum / n
}
