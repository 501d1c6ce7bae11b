// Chaos coverage for the persistence layer: torn writes injected by a
// deterministic schedule at append granularity, interleaved with live
// traffic and recovery reopens. The invariants mirror the serve chaos
// harness's: the process never dies, committed data never regresses, and
// the same seed replays the same crash schedule.
package store

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"testing"

	"hybridmem/internal/trace"
)

// planTorn is a deterministic torn-write schedule: each append is keyed
// by its (file, offset) identity and the store's open generation (a
// crash-and-reopen retries the same offset under the next generation, so
// the schedule cannot livelock one append), and 15% of those keys tear the
// record at half its framed length. Decisions are pure functions of
// (seed, file, offset, generation), so a run's crash schedule replays
// bit-identically.
func planTorn(seed, gen uint64) TornWriteFunc {
	return func(file string, off int64, rec []byte) int {
		sum := sha256.Sum256(fmt.Appendf(nil, "%d/%s@%d/%d", seed, file, off, gen))
		if binary.LittleEndian.Uint64(sum[:8])%100 < 15 {
			return len(rec) / 2
		}
		return -1
	}
}

// TestChaosTornWrites drives puts under a deterministic torn-write plan.
// Every simulated crash wounds the store; the harness reopens (the restart)
// and re-puts, asserting committed survivors are never lost and the final
// state converges to every document present.
func TestChaosTornWrites(t *testing.T) {
	const docs = 40
	run := func(seed uint64) (crashes int, finalStats Stats) {
		dir := t.TempDir()
		committed := map[string]bool{}
		var gen uint64
		s := mustOpen(t, dir, Options{TornWrite: planTorn(seed, gen)})
		for i := 0; i < docs; i++ {
			key := fmt.Sprintf("doc-%03d", i)
			for {
				err := s.PutDoc(key, []byte("payload-"+key))
				if err == nil {
					committed[key] = true
					break
				}
				// Simulated crash: "restart" by reopening, which must
				// truncate the torn tail and preserve every committed doc.
				crashes++
				gen++
				s.Close()
				s = mustOpen(t, dir, Options{TornWrite: planTorn(seed, gen)})
				for k := range committed {
					if _, ok, err := s.GetDoc(k); err != nil || !ok {
						t.Fatalf("committed %q lost after crash recovery (ok=%v err=%v)", k, ok, err)
					}
				}
			}
		}
		// A stream put through the same chaos: blocks + manifest commit or
		// are cleanly absent, never a manifest naming missing blocks.
		p := testStream(int64(seed), trace.BlockRefs/2)
		for {
			if err := s.PutStream("w", p, nil); err == nil {
				break
			}
			crashes++
			gen++
			s.Close()
			s = mustOpen(t, dir, Options{TornWrite: planTorn(seed, gen)})
			if got, _, ok, err := s.GetStream("w"); ok {
				if err != nil {
					t.Fatalf("stream manifest committed but unreadable: %v", err)
				}
				assertStreamEqual(t, p, got)
				break
			}
		}
		finalStats = s.Stats()
		s.Close()

		final := mustOpen(t, dir, Options{})
		defer final.Close()
		for i := 0; i < docs; i++ {
			key := fmt.Sprintf("doc-%03d", i)
			if v, ok, err := final.GetDoc(key); err != nil || !ok || string(v) != "payload-"+key {
				t.Fatalf("final state missing %q (ok=%v err=%v)", key, ok, err)
			}
		}
		got, _, ok, err := final.GetStream("w")
		if err != nil || !ok {
			t.Fatalf("final stream: ok=%v err=%v", ok, err)
		}
		assertStreamEqual(t, p, got)
		return crashes, finalStats
	}

	c1, st1 := run(42)
	if c1 == 0 {
		t.Fatal("plan injected no torn writes; the chaos run proved nothing")
	}
	c2, st2 := run(42)
	if c1 != c2 || st1.Docs != st2.Docs || st1.Streams != st2.Streams {
		t.Fatalf("same seed diverged: run1 crashes=%d %+v, run2 crashes=%d %+v", c1, st1, c2, st2)
	}
}

// TestWoundedStoreRefusesWrites pins the post-crash contract: after a
// simulated torn write, further mutations on the same handle fail fast
// with ErrWounded instead of appending past an unknown tail.
func TestWoundedStoreRefusesWrites(t *testing.T) {
	tornOnce := false
	s := mustOpen(t, t.TempDir(), Options{TornWrite: func(file string, off int64, rec []byte) int {
		if !tornOnce {
			tornOnce = true
			return len(rec) - 1
		}
		return -1
	}})
	defer s.Close()
	if err := s.PutDoc("a", []byte("v")); err != ErrSimulatedCrash {
		t.Fatalf("first put = %v, want ErrSimulatedCrash", err)
	}
	if err := s.PutDoc("a", []byte("v")); err != ErrWounded {
		t.Fatalf("put after wound = %v, want ErrWounded", err)
	}
}
