// Tests for the persistence layer: round trips across reopen, block-level
// dedup, probe accounting, mmap/pread equivalence, and the crash-safety
// contract (torn-tail recovery at every record boundary ±1, in this build's
// layout and in the retired sharded index it folds; deterministic
// chaos-driven torn writes).
package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"hybridmem/internal/trace"
)

// testStream packs a deterministic pseudo-random reference stream of n
// refs, crossing block boundaries when n > trace.BlockRefs.
func testStream(seed int64, n int) *trace.Packed {
	rng := rand.New(rand.NewSource(seed))
	p := &trace.Packed{}
	addr := uint64(1 << 20)
	for i := 0; i < n; i++ {
		addr += uint64(rng.Intn(4096)) - 2048
		kind := trace.Load
		if rng.Intn(3) == 0 {
			kind = trace.Store
		}
		p.Access(trace.Ref{Addr: addr, Size: 64, Kind: kind})
	}
	return p
}

// mustOpen opens a store or fails the test.
func mustOpen(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s
}

// assertStreamEqual decodes both streams fully and compares.
func assertStreamEqual(t *testing.T, want, got *trace.Packed) {
	t.Helper()
	if want.Len() != got.Len() {
		t.Fatalf("stream length %d, want %d", got.Len(), want.Len())
	}
	w, g := want.Refs(), got.Refs()
	for i := range w {
		if w[i] != g[i] {
			t.Fatalf("ref %d = %+v, want %+v", i, g[i], w[i])
		}
	}
}

func TestStreamRoundTripAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	p := testStream(1, 3*trace.BlockRefs/2) // 2 blocks, one partial
	meta := []byte(`{"workload":"CG"}`)

	s := mustOpen(t, dir, Options{})
	if err := s.PutStream("profile:CG", p, meta); err != nil {
		t.Fatal(err)
	}
	got, gotMeta, ok, err := s.GetStream("profile:CG")
	if err != nil || !ok {
		t.Fatalf("GetStream same handle: ok=%v err=%v", ok, err)
	}
	assertStreamEqual(t, p, got)
	if !bytes.Equal(gotMeta, meta) {
		t.Fatalf("meta = %s, want %s", gotMeta, meta)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir, Options{})
	defer s2.Close()
	got2, gotMeta2, ok, err := s2.GetStream("profile:CG")
	if err != nil || !ok {
		t.Fatalf("GetStream after reopen: ok=%v err=%v", ok, err)
	}
	assertStreamEqual(t, p, got2)
	if !bytes.Equal(gotMeta2, meta) {
		t.Fatalf("meta after reopen = %s, want %s", gotMeta2, meta)
	}
	st := s2.Stats()
	if st.Streams != 1 || st.Blocks != 2 {
		t.Fatalf("stats = %+v, want 1 stream / 2 blocks", st)
	}
}

func TestBlockDedupAcrossStreams(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{})
	defer s.Close()
	p := testStream(2, trace.BlockRefs) // exactly one full block
	if err := s.PutStream("a", p, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.PutStream("b", p, nil); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Streams != 2 {
		t.Fatalf("streams = %d, want 2", st.Streams)
	}
	if st.Blocks != 1 {
		t.Fatalf("blocks = %d, want 1 (identical content must dedup)", st.Blocks)
	}
	if st.DedupBlocks != 1 {
		t.Fatalf("dedup hits = %d, want 1", st.DedupBlocks)
	}
}

func TestDocRoundTripAndProbes(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	for i := 0; i < 64; i++ {
		if err := s.PutDoc(fmt.Sprintf("eval-%03d", i), []byte(fmt.Sprintf(`{"i":%d}`, i))); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	s = mustOpen(t, dir, Options{})
	defer s.Close()
	for i := 0; i < 64; i++ {
		v, ok, err := s.GetDoc(fmt.Sprintf("eval-%03d", i))
		if err != nil || !ok {
			t.Fatalf("GetDoc %d: ok=%v err=%v", i, ok, err)
		}
		if want := fmt.Sprintf(`{"i":%d}`, i); string(v) != want {
			t.Fatalf("doc %d = %s, want %s", i, v, want)
		}
	}
	// Cold misses: each is one probe of the in-memory index.
	misses := 1000
	for i := 0; i < misses; i++ {
		if _, ok, err := s.GetDoc(fmt.Sprintf("absent-%04d", i)); ok || err != nil {
			t.Fatalf("absent key present: ok=%v err=%v", ok, err)
		}
	}
	st := s.Stats()
	if st.Probes != uint64(64+misses) {
		t.Fatalf("probes = %d, want %d", st.Probes, 64+misses)
	}
}

func TestLastWriterWinsAfterReopen(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	for _, v := range []string{"one", "two", "three"} {
		if err := s.PutDoc("k", []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	s = mustOpen(t, dir, Options{})
	defer s.Close()
	v, ok, err := s.GetDoc("k")
	if err != nil || !ok || string(v) != "three" {
		t.Fatalf("GetDoc = %q ok=%v err=%v, want last write %q", v, ok, err, "three")
	}
	if st := s.Stats(); st.Docs != 1 {
		t.Fatalf("docs = %d, want 1 distinct key", st.Docs)
	}
}

func TestSegmentRollover(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{MaxSegmentBytes: 1 << 16})
	defer s.Close()
	// Distinct streams so blocks don't dedup; each packed block here is
	// tens of KB, forcing several rollovers under a 64 KiB cap.
	var streams []*trace.Packed
	for i := 0; i < 6; i++ {
		p := testStream(int64(100+i), trace.BlockRefs/2)
		streams = append(streams, p)
		if err := s.PutStream(fmt.Sprintf("w%d", i), p, nil); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Segments < 2 {
		t.Fatalf("segments = %d, want rollover past 1", st.Segments)
	}
	for i, p := range streams {
		got, _, ok, err := s.GetStream(fmt.Sprintf("w%d", i))
		if err != nil || !ok {
			t.Fatalf("GetStream w%d: ok=%v err=%v", i, ok, err)
		}
		assertStreamEqual(t, p, got)
	}
}

func TestMmapPreadEquivalence(t *testing.T) {
	dir := t.TempDir()
	p := testStream(3, 2*trace.BlockRefs)
	s := mustOpen(t, dir, Options{MaxSegmentBytes: 1 << 16})
	if err := s.PutStream("w", p, nil); err != nil {
		t.Fatal(err)
	}
	s.Close()
	for _, noMmap := range []bool{false, true} {
		s := mustOpen(t, dir, Options{NoMmap: noMmap})
		got, _, ok, err := s.GetStream("w")
		if err != nil || !ok {
			t.Fatalf("NoMmap=%v: ok=%v err=%v", noMmap, ok, err)
		}
		assertStreamEqual(t, p, got)
		s.Close()
	}
}

// recordBoundaries scans a store file and returns every committed record's
// end offset (the boundaries a torn write can land on).
func recordBoundaries(t *testing.T, path string) []int64 {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	st, _ := f.Stat()
	var ends []int64
	clean, err := scanRecords(f, st.Size(), fileHeaderBytes, func(off int64, payload []byte) error {
		ends = append(ends, off+recordHeaderBytes+int64(len(payload)))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if clean != st.Size() {
		t.Fatalf("%s has a torn tail before the test even corrupted it", path)
	}
	return ends
}

// storeFiles lists every .kv and .blk file under dir.
func storeFiles(t *testing.T, dir string) []string {
	t.Helper()
	var out []string
	for _, glob := range []string{"index/*.kv", "segments/*.blk"} {
		m, err := filepath.Glob(filepath.Join(dir, glob))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, m...)
	}
	return out
}

// TestTornTailRecoveryMatrix is the crash-safety acceptance test: for every
// record boundary of every store file, truncate the file at the boundary
// and at ±1 byte, and separately flip a byte in the final record, then
// assert open() recovers deterministically — committed records before the
// cut survive, the tail is discarded, and a second open recovers to the
// identical state.
func TestTornTailRecoveryMatrix(t *testing.T) {
	build := func(t *testing.T) (string, int) {
		dir := t.TempDir()
		s := mustOpen(t, dir, Options{})
		for i := 0; i < 8; i++ {
			if err := s.PutDoc(fmt.Sprintf("doc-%d", i), bytes.Repeat([]byte{byte(i)}, 100+i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.PutStream("w", testStream(7, trace.BlockRefs/4), nil); err != nil {
			t.Fatal(err)
		}
		s.Close()
		return dir, 8
	}

	// survivors reopens the store twice and asserts both opens agree,
	// returning the recovered doc and stream counts.
	survivors := func(t *testing.T, dir string) (docs, streams int) {
		var prev Stats
		for attempt := 0; attempt < 2; attempt++ {
			s := mustOpen(t, dir, Options{})
			st := s.Stats()
			for i := 0; i < 8; i++ {
				if v, ok, err := s.GetDoc(fmt.Sprintf("doc-%d", i)); err != nil {
					t.Fatalf("GetDoc after recovery: %v", err)
				} else if ok && !bytes.Equal(v, bytes.Repeat([]byte{byte(i)}, 100+i)) {
					t.Fatalf("doc-%d recovered with wrong bytes", i)
				}
			}
			if _, _, ok, err := s.GetStream("w"); err != nil && ok {
				t.Fatalf("stream recovered inconsistently: %v", err)
			}
			s.Close()
			if attempt == 1 && (st.Streams != prev.Streams || st.Docs != prev.Docs || st.Blocks != prev.Blocks) {
				t.Fatalf("recovery not deterministic: first open %+v, second %+v", prev, st)
			}
			prev = st
			docs, streams = st.Docs, st.Streams
		}
		return docs, streams
	}

	// cutEach runs the matrix over files of the store build makes, each
	// subtest named after the file's path below the store root.
	cutEach := func(build func(t *testing.T) (string, int), refDir string, files []string) {
		for _, path := range files {
			rel, _ := filepath.Rel(refDir, path)
			ends := recordBoundaries(t, path)
			if len(ends) == 0 {
				continue
			}
			for _, end := range ends {
				for _, delta := range []int64{-1, 0, +1} {
					cut := end + delta
					t.Run(fmt.Sprintf("%s/cut@%d", rel, cut), func(t *testing.T) {
						dir, _ := build(t)
						target := filepath.Join(dir, rel)
						st, err := os.Stat(target)
						if err != nil {
							t.Fatal(err)
						}
						if cut > st.Size() {
							t.Skip("cut past EOF")
						}
						if err := os.Truncate(target, cut); err != nil {
							t.Fatal(err)
						}
						survivors(t, dir)
					})
				}
			}
			// Corrupt (rather than truncate) one byte inside the last record.
			t.Run(rel+"/flip-tail-byte", func(t *testing.T) {
				dir, _ := build(t)
				target := filepath.Join(dir, rel)
				data, err := os.ReadFile(target)
				if err != nil {
					t.Fatal(err)
				}
				tail := recordBoundaries(t, target)
				last := tail[len(tail)-1]
				data[last-3] ^= 0xff
				if err := os.WriteFile(target, data, 0o644); err != nil {
					t.Fatal(err)
				}
				survivors(t, dir)
			})
		}
	}

	refDir, _ := build(t)
	cutEach(build, refDir, storeFiles(t, refDir))

	// The retired sharded layout, which open folds into index.kv: a torn
	// shard tail must fold exactly the shard's committed prefix. The fixture
	// wrote the same eight docs and stream first (more docs follow), so
	// survivors applies unchanged; its segment is byte-identical to the one
	// above, so only its shard logs are cut.
	legacy := func(t *testing.T) (string, int) { return copyShardedFixture(t), 8 }
	legacyDir, _ := legacy(t)
	shards, err := filepath.Glob(filepath.Join(legacyDir, "index", "shard-*.kv"))
	if err != nil || len(shards) == 0 {
		t.Fatalf("sharded fixture has no shard logs (err=%v)", err)
	}
	cutEach(legacy, legacyDir, shards)
}

// TestTornTailPreservesCommittedPrefix pins the core guarantee with exact
// counts: cutting the very last index record loses exactly that record and
// nothing before it.
func TestTornTailPreservesCommittedPrefix(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	keys := []string{"key-0", "key-1", "key-2", "key-3", "key-4"}
	for _, k := range keys {
		if err := s.PutDoc(k, []byte("v-"+k)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	index := filepath.Join(dir, "index", indexFile)
	ends := recordBoundaries(t, index)
	if len(ends) != len(keys) {
		t.Fatalf("%s has %d records, want %d", indexFile, len(ends), len(keys))
	}
	// Cut one byte into the last record's frame.
	if err := os.Truncate(index, ends[len(ends)-2]+1); err != nil {
		t.Fatal(err)
	}
	s = mustOpen(t, dir, Options{})
	defer s.Close()
	for i, k := range keys {
		v, ok, err := s.GetDoc(k)
		if err != nil {
			t.Fatal(err)
		}
		if i < len(keys)-1 {
			if !ok || string(v) != "v-"+k {
				t.Fatalf("committed doc %q lost by tail recovery (ok=%v v=%q)", k, ok, v)
			}
		} else if ok {
			t.Fatalf("torn doc %q should have been truncated away", k)
		}
	}
	if st := s.Stats(); st.TornBytesRecovered == 0 {
		t.Fatal("recovery accounted no torn bytes")
	}
}
