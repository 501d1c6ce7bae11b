// Package multicore simulates several cores sharing a last-level cache —
// the configuration behind the paper's reference machine, whose 20MB L3 is
// shared by the chip while Tables 2-4 account capacities per core.
//
// Each core owns a private L1/L2 pair and runs one workload; the workloads
// execute concurrently as goroutines, streaming their references through
// bounded channels into a deterministic round-robin interleaver that feeds
// the shared L3 and main memory. The headline measurement is contention:
// how much the shared L3's effective per-core capacity shrinks as cores are
// added — the empirical basis for the single-core model's
// design.SharedL3Cores per-core slice.
package multicore

import (
	"fmt"

	"hybridmem/internal/cache"
	"hybridmem/internal/core"
	"hybridmem/internal/design"
	"hybridmem/internal/trace"
	"hybridmem/internal/workload"
)

// Config shapes the simulated chip. Its caches are the reference system's
// (design.Registry.PrefixSpecs over the builtin catalog) at Scale: each
// core owns a private L1 and L2, and the L3 is the whole chip's,
// design.SharedL3Cores per-core slices.
type Config struct {
	// Scale co-divides every capacity (see package design). Zero selects
	// design.DefaultScale.
	Scale uint64
	// BatchRefs is the number of references a core processes per
	// interleaver turn — the granularity of simulated concurrency.
	// Zero selects 64.
	BatchRefs int
}

// channelDepth bounds each core's reference channel: 64 default batches,
// so a core's workload runs well ahead of its interleaver turns while the
// references in flight stay bounded.
const channelDepth = 4096

// chip is a Config resolved to the cache levels it builds.
type chip struct {
	cfg        Config
	l1, l2, l3 design.LevelSpec
}

// chip resolves zero fields and derives the cache levels from the design
// registry's prefix.
func (c Config) chip() (chip, error) {
	if c.Scale == 0 {
		c.Scale = design.DefaultScale
	}
	if err := design.ValidateScale(c.Scale); err != nil {
		return chip{}, fmt.Errorf("multicore: %w", err)
	}
	if c.BatchRefs <= 0 {
		c.BatchRefs = 64
	}
	p := design.DefaultRegistry().PrefixSpecs(c.Scale)
	l3 := p[2]
	l3.Size *= design.SharedL3Cores
	return chip{cfg: c, l1: p[0], l2: p[1], l3: l3}, nil
}

// CoreResult reports one core's private-cache behaviour.
type CoreResult struct {
	Name      string
	Refs      uint64
	L1        cache.Stats
	L2        cache.Stats
	Forwarded uint64 // requests this core sent to the shared L3
}

// Result reports a full chip simulation.
type Result struct {
	Cores []CoreResult
	// L3 is the shared cache's statistics across all cores.
	L3 cache.Stats
	// Memory is the terminal's statistics.
	Memory cache.Stats
	// TotalRefs sums all cores' references.
	TotalRefs uint64
}

// L3HitRate returns the shared cache's hit rate.
func (r Result) L3HitRate() float64 { return r.L3.HitRate() }

// sharedPort forwards one core's post-L2 traffic into the shared hierarchy
// while counting it. It implements core.Memory so it can terminate the
// core's private chain. Each core's addresses are displaced by a large
// per-core offset, modelling the distinct physical allocations separate
// processes receive (without it, identical co-runners would constructively
// share L3 lines).
type sharedPort struct {
	shared *core.Hierarchy
	offset uint64
	count  uint64
	one    [1]trace.Ref // the request being forwarded, as a one-element batch
}

// forward sends one request into the shared hierarchy at the core's offset.
func (p *sharedPort) forward(addr, size uint64, kind trace.Kind) {
	p.count++
	p.one[0] = trace.Ref{Addr: addr + p.offset, Size: uint32(size), Kind: kind}
	p.shared.AccessBatch(p.one[:])
}

// Load forwards a load into the shared hierarchy.
func (p *sharedPort) Load(addr, size uint64) { p.forward(addr, size, trace.Load) }

// Store forwards a store into the shared hierarchy.
func (p *sharedPort) Store(addr, size uint64) { p.forward(addr, size, trace.Store) }

// Modules reports no private modules; the shared hierarchy owns all stats.
func (p *sharedPort) Modules() []core.LevelStats { return nil }

// Run simulates the given workloads sharing one chip. Each workload runs on
// its own core; cores' reference streams interleave round-robin in batches
// of cfg.BatchRefs. The result is deterministic for deterministic
// workloads: the interleaver always drains a full batch from core i before
// serving core i+1, regardless of goroutine scheduling. A nil mem selects
// the catalog DRAM, 4GB divided by the scale.
func Run(cfg Config, workloads []workload.Workload, mem core.Memory) (Result, error) {
	c, err := cfg.chip()
	if err != nil {
		return Result{}, err
	}
	return c.run(workloads, mem)
}

// run simulates the workloads on the resolved chip.
func (c chip) run(workloads []workload.Workload, mem core.Memory) (Result, error) {
	if len(workloads) == 0 {
		return Result{}, fmt.Errorf("multicore: no workloads")
	}
	if mem == nil {
		mem = core.NewSimpleMemory("DRAM", design.DefaultRegistry().DRAM(), 4<<30/c.cfg.Scale)
	}
	l3, err := c.l3.Build()
	if err != nil {
		return Result{}, fmt.Errorf("multicore: %w", err)
	}
	shared, err := core.NewHierarchy([]core.Level{l3}, mem)
	if err != nil {
		return Result{}, err
	}

	type coreState struct {
		name    string
		ch      chan trace.Ref
		private *core.Hierarchy
		port    *sharedPort
		done    bool
	}

	cores := make([]*coreState, len(workloads))
	for i, w := range workloads {
		port := &sharedPort{shared: shared, offset: uint64(i) << 44}
		l1, err := c.l1.Build()
		if err != nil {
			return Result{}, fmt.Errorf("multicore: %w", err)
		}
		l2, err := c.l2.Build()
		if err != nil {
			return Result{}, fmt.Errorf("multicore: %w", err)
		}
		private, err := core.NewHierarchy([]core.Level{l1, l2}, port)
		if err != nil {
			return Result{}, err
		}
		cores[i] = &coreState{
			name:    fmt.Sprintf("core%d:%s", i, w.Name()),
			ch:      make(chan trace.Ref, channelDepth),
			private: private,
			port:    port,
		}
	}
	// Every core is built before any workload starts, so an error above
	// leaves no goroutine blocked on its channel.
	for i, w := range workloads {
		go func(w workload.Workload, ch chan<- trace.Ref) {
			w.Run(trace.SinkFunc(func(refs []trace.Ref) {
				for _, r := range refs {
					ch <- r
				}
			}))
			close(ch)
		}(w, cores[i].ch)
	}

	// Round-robin interleave: a full batch from each live core in turn.
	batch := make([]trace.Ref, 0, c.cfg.BatchRefs)
	live := len(cores)
	for live > 0 {
		for _, cs := range cores {
			if cs.done {
				continue
			}
			for len(batch) < c.cfg.BatchRefs {
				r, ok := <-cs.ch
				if !ok {
					cs.done = true
					live--
					break
				}
				batch = append(batch, r)
			}
			cs.private.AccessBatch(batch)
			batch = batch[:0]
		}
	}
	// Drain residual dirty state core by core, then the shared level.
	for _, cs := range cores {
		cs.private.Flush()
	}
	shared.Flush()

	res := Result{L3: l3.Cache.Stats()}
	if mods := mem.Modules(); len(mods) > 0 {
		res.Memory = mods[0].Stats
	}
	for _, cs := range cores {
		ls := cs.private.Levels()
		res.Cores = append(res.Cores, CoreResult{
			Name:      cs.name,
			Refs:      cs.private.Refs(),
			L1:        ls[0].Stats,
			L2:        ls[1].Stats,
			Forwarded: cs.port.count,
		})
		res.TotalRefs += cs.private.Refs()
	}
	return res, nil
}

// EffectiveShare estimates the per-core L3 capacity that would reproduce
// the observed shared hit rate, by probing solo runs of the probe workload
// at halving capacities of the shared L3. It returns the capacity (bytes)
// whose solo hit rate is closest to sharedHitRate, and the shared L3's
// full capacity.
func EffectiveShare(cfg Config, probe func() workload.Workload, sharedHitRate float64) (share, l3Size uint64, err error) {
	c, err := cfg.chip()
	if err != nil {
		return 0, 0, err
	}
	l3Size = c.l3.Size
	share = l3Size
	bestDiff := 2.0
	for size := l3Size; size >= l3Size/64 && size >= 64*20; size /= 2 {
		solo := c
		solo.l3.Size = size
		res, err := solo.run([]workload.Workload{probe()}, nil)
		if err != nil {
			return 0, 0, err
		}
		diff := res.L3HitRate() - sharedHitRate
		if diff < 0 {
			diff = -diff
		}
		if diff < bestDiff {
			bestDiff = diff
			share = size
		}
	}
	return share, l3Size, nil
}
