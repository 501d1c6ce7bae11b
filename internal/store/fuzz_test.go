package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// FuzzOpenStore damages a small store — a truncation and an XOR patch,
// applied to its index log or to its segment — and opens it. Open must
// never panic and may refuse only a file whose header (magic, version,
// kind) is damaged. After a successful open every document still present
// reads back its original bytes, every document whose record lies before
// the first damaged index record is present, an intact stream reads back
// whole, and a reopen recovers the same documents.
func FuzzOpenStore(f *testing.F) {
	const docs = 12
	docKey := func(i int) string { return fmt.Sprintf("doc-%02d", i) }
	docVal := func(i int) []byte { return bytes.Repeat([]byte{byte('a' + i)}, 20+3*i) }
	stream := testStream(5, 1000)

	tmpl := f.TempDir()
	s, err := Open(tmpl, Options{})
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < docs; i++ {
		if i == docs/2 {
			if err := s.PutStream("w", stream, nil); err != nil {
				f.Fatal(err)
			}
		}
		if err := s.PutDoc(docKey(i), docVal(i)); err != nil {
			f.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		f.Fatal(err)
	}
	files := []string{filepath.Join("index", indexFile), filepath.Join("segments", "seg-000001.blk")}
	orig := make([][]byte, len(files))
	for i, rel := range files {
		if orig[i], err = os.ReadFile(filepath.Join(tmpl, rel)); err != nil {
			f.Fatal(err)
		}
	}
	// recEnd[key] is the end offset of key's (only) index record.
	recEnd := map[string]int64{}
	if _, _, err := scanKV(filepath.Join(tmpl, files[0]), func(key string, val []byte, off int64) {
		recEnd[key] = off + int64(len(val))
	}); err != nil {
		f.Fatal(err)
	}

	f.Add(uint8(0), uint32(0), uint32(0), []byte{})
	f.Add(uint8(0), uint32(200), uint32(0), []byte{})
	f.Add(uint8(0), uint32(0), uint32(100), []byte{0xff})
	f.Add(uint8(0), uint32(0), uint32(4), []byte{0x7f})
	f.Add(uint8(1), uint32(3000), uint32(0), []byte{})
	f.Add(uint8(1), uint32(0), uint32(40), []byte{1, 2, 3})

	f.Fuzz(func(t *testing.T, target uint8, cut, at uint32, patch []byte) {
		which := int(target) % len(files)
		dir := t.TempDir()
		for i, rel := range files {
			data := bytes.Clone(orig[i])
			if i == which {
				if cut != 0 {
					data = data[:int(cut%uint32(len(data)+1))]
				}
				for j, b := range patch {
					if len(data) > 0 {
						data[(int(at)+j)%len(data)] ^= b
					}
				}
			}
			if err := os.MkdirAll(filepath.Join(dir, filepath.Dir(rel)), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, rel), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		damaged, err := os.ReadFile(filepath.Join(dir, files[which]))
		if err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, Options{})
		if err != nil {
			if len(damaged) < 6 || bytes.Equal(damaged[:6], orig[which][:6]) {
				t.Fatalf("Open refused a store whose headers are intact: %v", err)
			}
			return
		}
		// intactTo is the end of the longest undamaged prefix of the index.
		intactTo := int64(len(orig[0]))
		if which == 0 {
			intactTo = 0
			for intactTo < int64(len(damaged)) && damaged[intactTo] == orig[0][intactTo] {
				intactTo++
			}
		}
		present := map[string]bool{}
		for i := 0; i < docs; i++ {
			v, ok, err := s.GetDoc(docKey(i))
			if err != nil {
				t.Fatalf("GetDoc(%s): %v", docKey(i), err)
			}
			if ok && !bytes.Equal(v, docVal(i)) {
				t.Fatalf("%s recovered with bytes it never held: %q", docKey(i), v)
			}
			if !ok && recEnd[docPrefix+docKey(i)] <= intactTo {
				t.Fatalf("%s lost though its record precedes all damage (ends %d, intact to %d)",
					docKey(i), recEnd[docPrefix+docKey(i)], intactTo)
			}
			present[docKey(i)] = ok
		}
		got, _, ok, err := s.GetStream("w")
		if ok && err == nil {
			assertStreamEqual(t, stream, got)
		} else if which == 0 && recEnd[streamPrefix+"w"] <= intactTo {
			t.Fatalf("intact stream unreadable: ok=%v err=%v", ok, err)
		}
		s.Close()

		s = mustOpen(t, dir, Options{})
		defer s.Close()
		for i := 0; i < docs; i++ {
			if _, ok, err := s.GetDoc(docKey(i)); err != nil || ok != present[docKey(i)] {
				t.Fatalf("reopen changed %s: ok=%v err=%v, first open ok=%v", docKey(i), ok, err, present[docKey(i)])
			}
		}
	})
}
