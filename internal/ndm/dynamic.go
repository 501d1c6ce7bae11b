package ndm

import (
	"fmt"
	"sort"

	"hybridmem/internal/trace"
)

// Dynamic partitioning implements the paper's stated future work: "Further
// investigation should explore dynamic partitioning, that may change
// between computation phases, and take access patterns into account."
//
// The address space is divided into fixed-size chunks. Execution proceeds
// in epochs; each epoch accumulates per-chunk access counts into an
// exponentially-decayed hotness score, and at the epoch boundary the
// hottest chunks (up to the DRAM budget) are migrated to DRAM while the
// rest live on NVM. Migrations are charged: each moved chunk costs a read
// of every line from the source module and a write of every line to the
// destination module, so the policy pays for its own adaptivity.

// DynamicConfig tunes the policy.
type DynamicConfig struct {
	// EpochRefs is the number of references per epoch. Zero derives
	// one sixteenth of the stream (min 4096).
	EpochRefs int
	// ChunkBytes is the migration granularity (power of two). Zero
	// selects 256KB.
	ChunkBytes uint64
	// DRAMBudget is the number of bytes allowed on DRAM.
	DRAMBudget uint64
	// DecayShift is the per-epoch hotness decay: scores are halved
	// DecayShift times at each boundary (default 1 = halve once).
	DecayShift uint
	// MigrationLineBytes is the transfer granularity used to charge
	// migration traffic (default 256).
	MigrationLineBytes uint64
}

// withDefaults resolves zero fields against a stream length.
func (c DynamicConfig) withDefaults(streamLen int) DynamicConfig {
	if c.EpochRefs == 0 {
		c.EpochRefs = streamLen / 16
		if c.EpochRefs < 4096 {
			c.EpochRefs = 4096
		}
	}
	if c.ChunkBytes == 0 {
		c.ChunkBytes = 256 << 10
	}
	if c.DecayShift == 0 {
		c.DecayShift = 1
	}
	if c.MigrationLineBytes == 0 {
		c.MigrationLineBytes = 256
	}
	return c
}

// ModuleTraffic accumulates one memory module's traffic during a dynamic
// simulation, including the migration transfers it serviced.
type ModuleTraffic struct {
	Loads     uint64
	Stores    uint64
	LoadBits  uint64
	StoreBits uint64
}

// add charges one request.
func (m *ModuleTraffic) add(sizeBytes uint64, store bool) {
	if store {
		m.Stores++
		m.StoreBits += sizeBytes * 8
	} else {
		m.Loads++
		m.LoadBits += sizeBytes * 8
	}
}

// DynamicResult summarizes a dynamic-partitioning run.
type DynamicResult struct {
	Epochs        int
	Migrations    uint64 // chunk moves (each direction counts once)
	MigratedBytes uint64
	// DRAM and NVM hold the application plus migration traffic each
	// module serviced.
	DRAM ModuleTraffic
	NVM  ModuleTraffic
	// ResidentDRAMBytes is the DRAM bytes occupied after the final epoch.
	ResidentDRAMBytes uint64
	// NVMShare is the fraction of application accesses served by NVM.
	NVMShare float64
}

// SimulateDynamic runs the epoch-based policy over a post-L3 boundary
// stream. The stream is the same one the static oracle profiles, so the
// two approaches are directly comparable.
func SimulateDynamic(st *trace.Packed, cfg DynamicConfig) (DynamicResult, error) {
	streamLen := st.Len()
	cfg = cfg.withDefaults(streamLen)
	if cfg.ChunkBytes&(cfg.ChunkBytes-1) != 0 {
		return DynamicResult{}, fmt.Errorf("ndm: chunk size %d not a power of two", cfg.ChunkBytes)
	}
	budgetChunks := cfg.DRAMBudget / cfg.ChunkBytes

	var res DynamicResult
	hot := map[uint64]uint64{}       // chunk -> decayed score
	inDRAM := map[uint64]bool{}      // current DRAM residency
	epochHits := map[uint64]uint64{} // this epoch's raw counts
	var appAccesses, nvmAccesses uint64

	endEpoch := func() {
		res.Epochs++
		// Fold the epoch's counts into decayed hotness.
		for c, s := range hot {
			s >>= cfg.DecayShift
			if s == 0 {
				delete(hot, c)
			} else {
				hot[c] = s
			}
		}
		for c, n := range epochHits {
			hot[c] += n
			delete(epochHits, c)
		}
		// Select the new DRAM set: hottest chunks within budget.
		type ch struct {
			id    uint64
			score uint64
		}
		ranked := make([]ch, 0, len(hot))
		for c, s := range hot {
			ranked = append(ranked, ch{c, s})
		}
		sort.Slice(ranked, func(i, j int) bool {
			if ranked[i].score != ranked[j].score {
				return ranked[i].score > ranked[j].score
			}
			return ranked[i].id < ranked[j].id
		})
		want := map[uint64]bool{}
		for i := 0; i < len(ranked) && uint64(i) < budgetChunks; i++ {
			want[ranked[i].id] = true
		}
		// Migrate the differences, charging both modules.
		lines := cfg.ChunkBytes / cfg.MigrationLineBytes
		migrate := func(src, dst *ModuleTraffic) {
			for l := uint64(0); l < lines; l++ {
				src.add(cfg.MigrationLineBytes, false)
				dst.add(cfg.MigrationLineBytes, true)
			}
			res.Migrations++
			res.MigratedBytes += cfg.ChunkBytes
		}
		for c := range inDRAM {
			if !want[c] {
				migrate(&res.DRAM, &res.NVM) // evict to NVM
				delete(inDRAM, c)
			}
		}
		for c := range want {
			if !inDRAM[c] {
				migrate(&res.NVM, &res.DRAM) // promote to DRAM
				inDRAM[c] = true
			}
		}
	}

	chunkShift := uint(0)
	for cb := cfg.ChunkBytes; cb > 1; cb >>= 1 {
		chunkShift++
	}
	i := 0
	st.Batches(nil, func(refs []trace.Ref) error {
		for k := range refs {
			r := refs[k]
			chunk := r.Addr >> chunkShift
			epochHits[chunk]++
			size := uint64(r.Size)
			if size == 0 {
				size = 1
			}
			appAccesses++
			if inDRAM[chunk] {
				res.DRAM.add(size, r.Kind == trace.Store)
			} else {
				nvmAccesses++
				res.NVM.add(size, r.Kind == trace.Store)
			}
			i++
			if i%cfg.EpochRefs == 0 {
				endEpoch()
			}
		}
		return nil
	})
	if streamLen%cfg.EpochRefs != 0 {
		endEpoch()
	}
	res.ResidentDRAMBytes = uint64(len(inDRAM)) * cfg.ChunkBytes
	if appAccesses > 0 {
		res.NVMShare = float64(nvmAccesses) / float64(appAccesses)
	}
	return res, nil
}
