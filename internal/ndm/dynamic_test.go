package ndm

import (
	"math/rand/v2"
	"testing"

	"hybridmem/internal/trace"
)

// mkStream builds a stream with a hot region and a cold scan.
func mkStream(n int, hotBase, hotSpan, coldBase, coldSpan uint64, seed uint64) []trace.Ref {
	rng := rand.New(rand.NewPCG(seed, 1))
	refs := make([]trace.Ref, n)
	for i := range refs {
		var addr uint64
		if rng.Uint64N(10) < 8 { // 80% hot
			addr = hotBase + rng.Uint64N(hotSpan)
		} else {
			addr = coldBase + rng.Uint64N(coldSpan)
		}
		k := trace.Load
		if rng.Uint64N(4) == 0 {
			k = trace.Store
		}
		refs[i] = trace.Ref{Addr: addr &^ 63, Size: 64, Kind: k}
	}
	return refs
}

func TestDynamicValidation(t *testing.T) {
	_, err := SimulateDynamic(pack(nil), DynamicConfig{ChunkBytes: 3000})
	if err == nil {
		t.Fatal("non-power-of-two chunk should fail")
	}
}

func TestDynamicLearnsHotSet(t *testing.T) {
	const chunk = 64 << 10
	// Hot region: 4 chunks; cold region: 64 chunks. Budget: 8 chunks.
	refs := mkStream(200000, 0, 4*chunk, 1<<30, 64*chunk, 7)
	res, err := SimulateDynamic(pack(refs), DynamicConfig{
		EpochRefs:  10000,
		ChunkBytes: chunk,
		DRAMBudget: 8 * chunk,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Epochs != 20 {
		t.Fatalf("epochs = %d, want 20", res.Epochs)
	}
	// After warm-up, the hot 80% of traffic should be served by DRAM:
	// the NVM share must drop well below the hot share.
	if res.NVMShare > 0.45 {
		t.Fatalf("NVM share = %.2f; policy failed to learn the hot set", res.NVMShare)
	}
	if res.Migrations == 0 {
		t.Fatal("no migrations happened")
	}
	if res.ResidentDRAMBytes == 0 || res.ResidentDRAMBytes > 8*chunk {
		t.Fatalf("resident DRAM = %d", res.ResidentDRAMBytes)
	}
}

func TestDynamicRespectsBudget(t *testing.T) {
	const chunk = 64 << 10
	refs := mkStream(50000, 0, 32*chunk, 1<<30, 32*chunk, 3)
	res, err := SimulateDynamic(pack(refs), DynamicConfig{
		EpochRefs:  5000,
		ChunkBytes: chunk,
		DRAMBudget: 4 * chunk,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ResidentDRAMBytes > 4*chunk {
		t.Fatalf("resident %d exceeds budget %d", res.ResidentDRAMBytes, 4*chunk)
	}
}

func TestDynamicZeroBudgetAllNVM(t *testing.T) {
	refs := mkStream(20000, 0, 1<<20, 1<<30, 1<<20, 9)
	res, err := SimulateDynamic(pack(refs), DynamicConfig{DRAMBudget: 0})
	if err != nil {
		t.Fatal(err)
	}
	if res.NVMShare != 1.0 {
		t.Fatalf("NVM share = %g, want 1.0 with zero budget", res.NVMShare)
	}
	if res.Migrations != 0 {
		t.Fatalf("migrations = %d with zero budget", res.Migrations)
	}
	if res.DRAM.Loads+res.DRAM.Stores != 0 {
		t.Fatal("DRAM traffic with zero budget")
	}
}

// TestDynamicTrafficConservation: application accesses are split exactly
// between the two modules (plus accounted migration traffic).
func TestDynamicTrafficConservation(t *testing.T) {
	const chunk = 64 << 10
	refs := mkStream(60000, 0, 8*chunk, 1<<30, 8*chunk, 5)
	res, err := SimulateDynamic(pack(refs), DynamicConfig{
		EpochRefs: 6000, ChunkBytes: chunk, DRAMBudget: 4 * chunk, MigrationLineBytes: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	migOps := res.MigratedBytes / 256 // per direction: reads on src, writes on dst
	total := res.DRAM.Loads + res.DRAM.Stores + res.NVM.Loads + res.NVM.Stores
	if total != uint64(len(refs))+2*migOps {
		t.Fatalf("traffic %d != app %d + 2x migration %d", total, len(refs), migOps)
	}
	// Migration bytes are symmetric: each move reads and writes the same
	// chunk volume.
	if res.MigratedBytes != res.Migrations*chunk {
		t.Fatalf("migrated bytes %d != moves %d x chunk", res.MigratedBytes, res.Migrations)
	}
}

// TestDynamicAdaptsToPhaseChange: when the hot set moves, the policy
// follows it within a few epochs.
func TestDynamicAdaptsToPhaseChange(t *testing.T) {
	const chunk = 64 << 10
	phase1 := mkStream(100000, 0, 4*chunk, 1<<30, 64*chunk, 11)
	phase2 := mkStream(100000, 1<<20, 4*chunk, 1<<30, 64*chunk, 12) // hot set moved
	refs := append(phase1, phase2...)
	res, err := SimulateDynamic(pack(refs), DynamicConfig{
		EpochRefs: 10000, ChunkBytes: chunk, DRAMBudget: 8 * chunk,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Compare against a run of phase 2 alone starting cold: the combined
	// run must not be catastrophically worse (adaptation happened).
	solo, err := SimulateDynamic(pack(phase2), DynamicConfig{
		EpochRefs: 10000, ChunkBytes: chunk, DRAMBudget: 8 * chunk,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.NVMShare > solo.NVMShare+0.30 {
		t.Fatalf("phase change not tracked: combined NVM share %.2f vs solo %.2f", res.NVMShare, solo.NVMShare)
	}
	// The phase change must force extra migrations.
	if res.Migrations <= solo.Migrations {
		t.Fatalf("expected extra migrations across the phase change: %d vs %d", res.Migrations, solo.Migrations)
	}
}
