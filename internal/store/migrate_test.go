package store

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hybridmem/internal/trace"
)

// shardedFixture is a store directory written by the retired sharded-index
// layout (16 index/shard-XX.kv logs plus .bfl bloom sidecars, each file at
// header version 1): the torn-tail matrix's eight docs and stream "w"
// first, then 32 evaluation docs, then a rewrite of eval-07. Tests work on
// copies (copyShardedFixture); opening the fixture in place would migrate
// it.
const shardedFixture = "testdata/sharded-v1"

// shardedFixtureDocs returns every document the fixture holds, with the
// last value written under each key.
func shardedFixtureDocs() map[string][]byte {
	docs := map[string][]byte{}
	for i := 0; i < 8; i++ {
		docs[fmt.Sprintf("doc-%d", i)] = bytes.Repeat([]byte{byte(i)}, 100+i)
	}
	for n := 0; n < 32; n++ {
		docs[fmt.Sprintf("eval-%02d", n)] = []byte(fmt.Sprintf(`{"eval":%d}`, n))
	}
	docs["eval-07"] = []byte(`{"eval":7,"rewritten":true}`)
	return docs
}

// shardedFixtureStream is the stream the fixture holds under "w".
func shardedFixtureStream() *trace.Packed { return testStream(7, trace.BlockRefs/4) }

// copyShardedFixture copies the fixture into a fresh temporary directory.
func copyShardedFixture(t *testing.T) string {
	t.Helper()
	dst := t.TempDir()
	err := filepath.WalkDir(shardedFixture, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(shardedFixture, path)
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

// assertHolds checks that s holds exactly docs plus the fixture stream.
func assertHolds(t *testing.T, s *Store, docs map[string][]byte) {
	t.Helper()
	for k, want := range docs {
		v, ok, err := s.GetDoc(k)
		if err != nil || !ok || !bytes.Equal(v, want) {
			t.Fatalf("GetDoc(%q) = %q ok=%v err=%v, want %q", k, v, ok, err, want)
		}
	}
	got, _, ok, err := s.GetStream("w")
	if err != nil || !ok {
		t.Fatalf("GetStream(w): ok=%v err=%v", ok, err)
	}
	assertStreamEqual(t, shardedFixtureStream(), got)
	if st := s.Stats(); st.Docs != len(docs) || st.Streams != 1 {
		t.Fatalf("stats = %+v, want %d docs and 1 stream", st, len(docs))
	}
}

// assertOneLog checks that dir's index holds the single log and nothing
// of the sharded layout.
func assertOneLog(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join(dir, "index"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if len(names) != 1 || names[0] != indexFile {
		t.Fatalf("index/ holds %v, want only %s", names, indexFile)
	}
}

// TestOpenFoldsShardedIndex pins the migration from the sharded layout:
// every doc and the stream read back byte-identical, the shard logs and
// sidecars are gone, a second open changes nothing, a key the single log
// already holds keeps its newer value, and a crash at any append of the
// fold leaves a directory the next open folds to the same key map.
func TestOpenFoldsShardedIndex(t *testing.T) {
	want := shardedFixtureDocs()

	dir := copyShardedFixture(t)
	s := mustOpen(t, dir, Options{})
	assertHolds(t, s, want)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	assertOneLog(t, dir)

	logPath := filepath.Join(dir, "index", indexFile)
	before, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	s = mustOpen(t, dir, Options{})
	assertHolds(t, s, want)
	s.Close()
	if after, err := os.ReadFile(logPath); err != nil || !bytes.Equal(before, after) {
		t.Fatalf("second open rewrote %s (err=%v)", indexFile, err)
	}
	assertOneLog(t, dir)

	t.Run("log-holds-newer", func(t *testing.T) {
		// The state a crash between the fold's fsync and its removals
		// leaves, plus one later write: the log holds every key, one of them
		// newer than its shard copy.
		migrated := copyShardedFixture(t)
		s := mustOpen(t, migrated, Options{})
		newer := []byte(`{"eval":3,"newer":true}`)
		if err := s.PutDoc("eval-03", newer); err != nil {
			t.Fatal(err)
		}
		s.Close()
		log, err := os.ReadFile(filepath.Join(migrated, "index", indexFile))
		if err != nil {
			t.Fatal(err)
		}
		dir := copyShardedFixture(t)
		if err := os.WriteFile(filepath.Join(dir, "index", indexFile), log, 0o644); err != nil {
			t.Fatal(err)
		}
		s = mustOpen(t, dir, Options{})
		defer s.Close()
		docs := shardedFixtureDocs()
		docs["eval-03"] = newer
		assertHolds(t, s, docs)
		assertOneLog(t, dir)
	})

	t.Run("crash-mid-fold", func(t *testing.T) {
		// The fold appends one record per fixture key: 40 docs, 1 stream.
		for tear := 1; tear <= len(want)+1; tear++ {
			dir := copyShardedFixture(t)
			appends := 0
			_, err := Open(dir, Options{TornWrite: func(file string, off int64, rec []byte) int {
				if appends++; appends == tear {
					return len(rec) / 2
				}
				return -1
			}})
			if !errors.Is(err, ErrSimulatedCrash) {
				t.Fatalf("tear at fold append %d: Open = %v, want ErrSimulatedCrash", tear, err)
			}
			s := mustOpen(t, dir, Options{})
			assertHolds(t, s, want)
			s.Close()
			assertOneLog(t, dir)
		}
	})
}

// TestStatsCountsMatchIndexWalk pins Stats' running Streams and Docs counts
// to a full walk of the key map after rewrites, a reopen and a migration.
func TestStatsCountsMatchIndexWalk(t *testing.T) {
	walk := func(t *testing.T, s *Store, wantStreams, wantDocs int) {
		t.Helper()
		var streams, docs int
		for key := range s.kv.index {
			if strings.HasPrefix(key, streamPrefix) {
				streams++
			} else {
				docs++
			}
		}
		st := s.Stats()
		if st.Streams != streams || st.Docs != docs {
			t.Fatalf("stats count %d streams / %d docs, a walk counts %d / %d", st.Streams, st.Docs, streams, docs)
		}
		if streams != wantStreams || docs != wantDocs {
			t.Fatalf("walk counts %d streams / %d docs, want %d / %d", streams, docs, wantStreams, wantDocs)
		}
	}

	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	p := testStream(9, 512)
	for round := 0; round < 3; round++ {
		for i := 0; i < 10; i++ {
			if err := s.PutDoc(fmt.Sprintf("d%d", i), []byte(fmt.Sprint(round))); err != nil {
				t.Fatal(err)
			}
		}
		for _, key := range []string{"w", fmt.Sprintf("w%d", round)} {
			if err := s.PutStream(key, p, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	walk(t, s, 4, 10)
	s.Close()

	s = mustOpen(t, dir, Options{})
	walk(t, s, 4, 10)
	s.Close()

	s = mustOpen(t, copyShardedFixture(t), Options{})
	walk(t, s, 1, len(shardedFixtureDocs()))
	s.Close()
}
