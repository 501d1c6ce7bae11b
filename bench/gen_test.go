package main

import (
	"slices"
	"testing"
)

// TestGeneratorsArePureFunctionsOfSeedAndIndex pins the input contract:
// every request and candidate is a function of (seed, index) alone, so
// the same seed reproduces the same inputs, and another seed changes them.
func TestGeneratorsArePureFunctionsOfSeedAndIndex(t *testing.T) {
	z := newZipf(182, hotZipfS)
	gen := func(seed uint64) (geos []geometry, ranks []int, mix []bool, perm []int) {
		for i := uint64(0); i < 2000; i++ {
			geos = append(geos, customGeometry(seed, streamCold, i))
			ranks = append(ranks, z.rank(seed, streamZipf, i))
			mix = append(mix, unit(seed, streamMix, i) < hotAnalyticShare)
		}
		return geos, ranks, mix, permutation(draw(seed, streamPerm, 0), 182)
	}
	g1, r1, m1, p1 := gen(1)
	g1b, r1b, m1b, p1b := gen(1)
	if !slices.Equal(g1, g1b) || !slices.Equal(r1, r1b) || !slices.Equal(m1, m1b) || !slices.Equal(p1, p1b) {
		t.Fatal("the same seed generated different inputs")
	}
	g2, r2, m2, p2 := gen(2)
	if slices.Equal(g1, g2) || slices.Equal(r1, r2) || slices.Equal(m1, m2) || slices.Equal(p1, p2) {
		t.Fatal("a different seed generated identical inputs")
	}
	// Indices are independent of the order they are generated in.
	if customGeometry(1, streamCold, 1234) != g1[1234] {
		t.Fatal("customGeometry depends on generation order")
	}
	sorted := slices.Clone(p1)
	slices.Sort(sorted)
	for i, v := range sorted {
		if v != i {
			t.Fatalf("permutation is not a permutation of [0, 182): %v", p1)
		}
	}
}

// TestCustomDesignsArePowerOfTwoGeometries checks that every custom design
// has power-of-two capacity, page size and set count, so none can hit the
// serving layer's non-power-of-two set-count failure.
func TestCustomDesignsArePowerOfTwoGeometries(t *testing.T) {
	pow2 := func(x uint64) bool { return x > 0 && x&(x-1) == 0 }
	seen := map[geometry]bool{}
	for _, stream := range []uint64{streamHotCustom, streamExplore, streamCold, streamLadder} {
		for i := uint64(0); i < 5000; i++ {
			g := customGeometry(3, stream, i)
			seen[g] = true
			sets := g.CacheSize / g.Page / customAssoc
			if !pow2(g.CacheSize) || !pow2(g.Page) || !pow2(sets) {
				t.Fatalf("geometry %+v: capacity, page or set count (%d) not a power of two", g, sets)
			}
			if g.CacheSize < customMinCache || g.CacheSize > customMinCache<<(customCapSteps-1) {
				t.Fatalf("geometry %+v: capacity outside 64 KiB..8 MiB", g)
			}
		}
	}
	if want := len(customCacheTechs) * customCapSteps * len(customPages) * len(customMemTechs); len(seen) != want {
		t.Fatalf("draws cover %d of the %d geometries", len(seen), want)
	}
}

// TestZipfSkew checks the popularity skew: rank 0 is drawn far more often
// than the median rank, and every draw is in range.
func TestZipfSkew(t *testing.T) {
	z := newZipf(182, hotZipfS)
	counts := make([]int, 182)
	for i := uint64(0); i < 100_000; i++ {
		counts[z.rank(5, streamZipf, i)]++
	}
	if counts[0] < 10*counts[91] {
		t.Fatalf("rank 0 drawn %d times, rank 91 %d: not Zipf-skewed", counts[0], counts[91])
	}
}

// TestGrid checks the 91-point Table 2/3 grid.
func TestGrid(t *testing.T) {
	g := grid()
	count := map[string]int{}
	for _, p := range g {
		count[p.Family]++
	}
	if len(g) != 91 || count["4LC"] != 16 || count["NMM"] != 27 || count["4LCNVM"] != 48 {
		t.Fatalf("grid has %d points %v, want 91 = 16 4LC + 27 NMM + 48 4LCNVM", len(g), count)
	}
}
