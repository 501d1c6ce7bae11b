package main

import (
	"runtime"
	"sort"
	"sync"
	"time"
)

// A shared host's speed drifts while a run measures. On the two-vCPU host
// the benchmark was sized on, a fixed loop's CPU time moves by ±20% from
// second to second and by up to 1.5x between minute-long regimes as other
// tenants come and go, and every wall-clock metric moves with it: over 22
// minutes of back-to-back sweep passes, 15-second windows read from 0.83x to
// 1.49x their median. So the benchmark measures the host's speed beside the
// workload and reports every time and rate at one reference speed.
//
// A locked OS thread runs a fixed kernel every calibrateEvery and records
// the thread CPU time it took. The kernel is the benchmark's own code, so
// no change to the program can move it: independent multiply-adds and
// stores into a 512 KiB table, throughput-bound like the simulator's hot
// loops. Of the kernels tried it tracked the workloads best; scaled by it,
// the same sweep windows read from 0.88x to 1.14x their median (quartile
// spread 0.079, against 0.195 unscaled). A time measured over an interval
// is multiplied by refKernelSeconds over the kernel's median time in that
// interval, and a rate is divided by it. The factor is printed with every
// run.

const (
	// calibrateEvery spaces the kernel's passes. A pass takes about a
	// quarter of a millisecond of one core, so calibration costs the
	// workload a tenth of a percent of its CPU and delays well under 1% of
	// its requests.
	calibrateEvery   = 250 * time.Millisecond
	calibrateIters   = 80_000
	calibrateEntries = 1 << 16
	// refKernelSeconds is the kernel's median time per pass on the host
	// the benchmark was sized on while a workload ran beside it: the
	// reference speed times and rates are reported at.
	refKernelSeconds = 0.00025
)

// hostSpeed samples the host's speed until closed.
type hostSpeed struct {
	stop, done chan struct{}

	mu  sync.Mutex
	at  []time.Time // when each pass ended
	cpu []float64   // seconds each pass took
	x   uint64      // the kernel's running value, kept so it is not elided
}

func startHostSpeed() *hostSpeed {
	h := &hostSpeed{stop: make(chan struct{}), done: make(chan struct{})}
	go h.run()
	return h
}

func (h *hostSpeed) run() {
	defer close(h.done)
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	table := make([]uint64, calibrateEntries)
	tick := time.NewTicker(calibrateEvery)
	defer tick.Stop()
	x := uint64(1)
	for {
		c0, err0 := threadCPUSeconds()
		x = calibrationKernel(table, x)
		c1, err1 := threadCPUSeconds()
		if err0 == nil && err1 == nil {
			h.mu.Lock()
			h.at = append(h.at, time.Now())
			h.cpu = append(h.cpu, c1-c0)
			h.x = x
			h.mu.Unlock()
		}
		select {
		case <-h.stop:
			return
		case <-tick.C:
		}
	}
}

// close stops sampling and waits for the sampler to exit.
func (h *hostSpeed) close() {
	close(h.stop)
	<-h.done
}

// calibrationKernel is calibrateIters pseudo-random updates of table, which
// must hold 1<<16 entries.
func calibrationKernel(table []uint64, x uint64) uint64 {
	for i := 0; i < calibrateIters; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		table[x>>48] += x
	}
	return x
}

// scale is the reference-to-measured speed ratio over [from, to]:
// refKernelSeconds over the median time of the kernel passes that ended in
// the interval, or of the five nearest passes when fewer than three did.
// Multiply a time measured in the interval by it; divide a rate by it. A
// nil sampler, or one with no passes yet, scales by 1.
func (h *hostSpeed) scale(from, to time.Time) float64 {
	if h == nil {
		return 1
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	var in []float64
	for i, t := range h.at {
		if !t.Before(from) && !t.After(to) {
			in = append(in, h.cpu[i])
		}
	}
	if len(in) < 3 {
		mid := from.Add(to.Sub(from) / 2)
		idx := make([]int, len(h.at))
		for i := range idx {
			idx[i] = i
		}
		dist := func(i int) time.Duration { return absDuration(h.at[i].Sub(mid)) }
		sort.Slice(idx, func(a, b int) bool { return dist(idx[a]) < dist(idx[b]) })
		in = in[:0]
		for _, i := range idx[:min(5, len(idx))] {
			in = append(in, h.cpu[i])
		}
	}
	if len(in) == 0 {
		return 1
	}
	return refKernelSeconds / median(in)
}

func absDuration(d time.Duration) time.Duration {
	if d < 0 {
		return -d
	}
	return d
}
