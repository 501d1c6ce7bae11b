package main

import (
	"runtime"
	"runtime/debug"
	"time"

	"hybridmem/internal/workload/catalog"
)

// config sizes the benchmark. Every run uses fixedConfig; the tests shrink
// it to keep `go test` quick.
type config struct {
	// Scale and WorkloadScale are the design-space and workload-footprint
	// co-scaling divisors.
	Scale, WorkloadScale uint64
	// Suite is the offline workloads' profiled set; Hot and Store are the
	// workloads serve_hot and serve_cold_store send requests for.
	Suite, Hot, Store []string
	// GridPoints is how many of the 91 Table 2/3 points each workload
	// sweeps.
	GridPoints int
	// Candidates is how many custom designs explore_analytic screens per
	// pass, and Promote how many of them per workload it replays exactly.
	Candidates, Promote int
	// ColdRound is how many distinct designs each serve_cold_store round
	// writes and then reads back.
	ColdRound int
	// Setups is how many times an untraced run sets up; setup_s is their
	// median.
	Setups int
}

// fixedConfig is the configuration every benchmark run uses: design scale
// 64 (the smallest capacities the design space allows) and workload scale
// 1024, which keeps the seven Table 4 workloads' boundary streams between
// one and eight 64K-reference blocks, so block pipelining is exercised while
// a full set-up stays under five seconds on two cores.
var fixedConfig = config{
	Scale:         64,
	WorkloadScale: 1024,
	Suite:         catalog.Names,
	Hot:           []string{"CG", "Graph500"},
	Store:         []string{"CG", "Graph500", "Velvet"},
	GridPoints:    91,
	Candidates:    5000,
	Promote:       16,
	ColdRound:     250,
	Setups:        3,
}

const (
	// defaultSeconds is the length of each workload's measured phase, and
	// BENCHMARK.json's run_seconds.
	defaultSeconds = 20
	// workers is RunJobs' replay worker bound and clients the number of
	// closed-loop HTTP clients, each on its own keep-alive connection. Both
	// equal the two cores the benchmark was sized on; they are fixed rather
	// than read from the host so that runs on different hosts do the same
	// work.
	workers = 2
	clients = 2
	// hotAnalyticShare is the fraction of serve_hot requests that are
	// first-time analytic evaluations of distinct custom designs; the rest
	// are Zipf draws over the warmed exact points.
	hotAnalyticShare = 0.02
	// hotZipfS is the Zipf exponent of serve_hot's popularity skew.
	hotZipfS = 1.1
)

// setUp runs build cfg.Setups times (once in a traced run), records the
// median wall time as setup_s, and returns the last build's state. Each
// earlier state is released, and its memory returned to the system, before
// the next build starts, so peak_rss_mb measures one set-up, not several.
func setUp[T any](r *run, build func() (T, func(), error)) (T, func(), error) {
	n := r.cfg.Setups
	if r.traced {
		n = 1
	}
	var (
		st      T
		release = func() {}
		times   []float64
	)
	for i := 0; i < n; i++ {
		release()
		var zero T
		st, release = zero, func() {}
		runtime.GC()
		debug.FreeOSMemory()
		t0 := time.Now()
		s, rel, err := build()
		if err != nil {
			return zero, func() {}, err
		}
		times = append(times, r.hostSeconds(t0, time.Now()))
		st, release = s, rel
	}
	r.set("setup_s", median(times))
	return st, release, nil
}
