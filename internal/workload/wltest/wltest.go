// Package wltest provides shared conformance checks for workload
// implementations: determinism, address-space containment, and metadata
// sanity. Every workload package's tests run these.
package wltest

import (
	"sort"
	"testing"

	"hybridmem/internal/trace"
	"hybridmem/internal/workload"
)

// CheckDeterminism runs the workload twice and verifies both runs emit
// byte-identical reference streams (compared via aggregate counters and a
// sampled prefix).
func CheckDeterminism(t *testing.T, w workload.Workload) {
	t.Helper()
	const sample = 4096
	run := func() (c trace.Counter, prefix []trace.Ref) {
		w.Run(trace.SinkFunc(func(refs []trace.Ref) {
			c.AccessBatch(refs)
			if n := sample - len(prefix); n > 0 {
				prefix = append(prefix, refs[:min(n, len(refs))]...)
			}
		}))
		return c, prefix
	}
	c1, prefix1 := run()
	c2, prefix2 := run()
	if c1 != c2 {
		t.Fatalf("%s: non-deterministic counters: %+v vs %+v", w.Name(), c1, c2)
	}
	for i := range prefix1 {
		if prefix1[i] != prefix2[i] {
			t.Fatalf("%s: ref %d differs between runs: %+v vs %+v", w.Name(), i, prefix1[i], prefix2[i])
		}
	}
	if c1.Total() == 0 {
		t.Fatalf("%s: emitted no references", w.Name())
	}
}

// CheckRefsInRegions verifies that every emitted reference starts inside
// one of the workload's declared regions — the invariant the NDM oracle's
// address-space partitioning depends on.
func CheckRefsInRegions(t *testing.T, w workload.Workload) {
	t.Helper()
	regs := w.Regions()
	if len(regs) == 0 {
		t.Fatalf("%s: no regions declared", w.Name())
	}
	sorted := append([]workload.Region(nil), regs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Base < sorted[j].Base })
	contains := func(addr uint64) bool {
		lo, hi := 0, len(sorted)
		for lo < hi {
			mid := (lo + hi) / 2
			switch {
			case addr < sorted[mid].Base:
				hi = mid
			case addr >= sorted[mid].End():
				lo = mid + 1
			default:
				return true
			}
		}
		return false
	}
	var bad, total uint64
	var firstBad trace.Ref
	w.Run(trace.SinkFunc(func(refs []trace.Ref) {
		for _, r := range refs {
			total++
			if !contains(r.Addr) {
				if bad == 0 {
					firstBad = r
				}
				bad++
			}
		}
	}))
	if bad > 0 {
		t.Fatalf("%s: %d/%d refs outside declared regions (first: %+v; regions: %v)",
			w.Name(), bad, total, firstBad, regs)
	}
}

// CheckMetadata verifies name/suite labels, a positive footprint within 2x
// of the scaled Table 4 target, and a positive reference time.
func CheckMetadata(t *testing.T, w workload.Workload, wantSuite string, targetFootprint uint64) {
	t.Helper()
	if w.Name() == "" || w.Suite() != wantSuite {
		t.Errorf("metadata: name=%q suite=%q (want suite %q)", w.Name(), w.Suite(), wantSuite)
	}
	fp := w.Footprint()
	if fp == 0 {
		t.Fatal("zero footprint")
	}
	if targetFootprint > 0 && (fp > 2*targetFootprint || fp < targetFootprint/4) {
		t.Errorf("footprint %d far from target %d", fp, targetFootprint)
	}
	if w.RefTime() <= 0 {
		t.Error("non-positive reference time")
	}
	// Footprint must equal the sum of region sizes.
	var sum uint64
	for _, r := range w.Regions() {
		sum += r.Size
	}
	if sum != fp {
		t.Errorf("footprint %d != region sum %d", fp, sum)
	}
}
