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
// The implementation is the classic O(log n)-per-access algorithm over
// access timestamps, kept small and dense: pages get dense ids on first
// touch, a bit-packed array holds one bit per page at its most recent
// access time, and a Fenwick tree over the 64-bit words' popcounts gives
// the number of set bits after a page's previous timestamp — its reuse
// distance. Short distances are counted by popcount alone. When the clock
// reaches capacity the live timestamps are renumbered 0..P-1 in recency
// order, so the structure is sized by the P distinct pages, not by the
// number of accesses. Sketcher runs it at one or more line granularities
// in a single pass; a single-granularity Sketcher is the plain reuse
// profiler.
package reuse

import (
	"math"
	"math/bits"
)

// HistBuckets is the number of buckets in every captured histogram; the
// last one also holds every longer distance.
const HistBuckets = 48

// bucket maps a finite reuse distance to its histogram bucket index:
// bucket 0 covers distances 0 and 1, bucket k covers [2^k, 2^(k+1)).
func bucket(d uint64) int {
	if d <= 1 {
		return 0
	}
	return min(bits.Len64(d)-1, HistBuckets-1)
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
