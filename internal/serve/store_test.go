package serve

import (
	"context"
	"crypto/sha256"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"hybridmem/internal/store"
	"hybridmem/internal/tech"
)

// openStore opens (or reopens) the durable tier at dir.
func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatalf("store.Open(%s): %v", dir, err)
	}
	return st
}

// TestStoreTierWarmRestart is the warm-restart contract end to end: a
// second "process" (fresh Server + Evaluator over the same store directory)
// serves a previously evaluated design point from disk with zero profiling
// and zero boundary replay, bit-identically to the original computation,
// and promotes it back into the in-process LRU.
func TestStoreTierWarmRestart(t *testing.T) {
	dir := t.TempDir()

	// Process one: evaluate two design points cold, writing both results
	// and the CG profile through to disk.
	st1 := openStore(t, dir)
	_, ev1, ts1 := newTestServer(t, Config{Store: st1})
	ev1.SetStore(st1)
	respA, bodyA := post(t, ts1, testBody("4LC/EH4"))
	if got := respA.Header.Get("X-Memsimd-Cache"); got != "miss" {
		t.Fatalf("cold request cache status %q, want miss", got)
	}
	_, bodyB := post(t, ts1, testBody("NMM/N6"))
	if ev1.ProfilesRun() != 1 || ev1.Replays() != 2 {
		t.Fatalf("process one ran %d profiles / %d replays, want 1 / 2",
			ev1.ProfilesRun(), ev1.Replays())
	}
	ts1.Close()
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	// Process two: same directory, empty caches. Both results must come
	// back from the durable tier — no profiling pass, no replay.
	st2 := openStore(t, dir)
	defer st2.Close()
	_, ev2, ts2 := newTestServer(t, Config{Store: st2})
	ev2.SetStore(st2)
	for name, want := range map[string]map[string]any{
		testBody("4LC/EH4"): bodyA,
		testBody("NMM/N6"):  bodyB,
	} {
		resp, body := post(t, ts2, name)
		if got := resp.Header.Get("X-Memsimd-Cache"); got != "store_hit" {
			t.Fatalf("warm request cache status %q, want store_hit", got)
		}
		wantMetrics := want["metrics"].(map[string]any)
		gotMetrics := body["metrics"].(map[string]any)
		for k, wv := range wantMetrics {
			if gv, ok := gotMetrics[k]; !ok || gv != wv {
				t.Fatalf("restored metric %s = %v, want %v", k, gv, wv)
			}
		}
	}
	if ev2.ProfilesRun() != 0 || ev2.Replays() != 0 || ev2.ReplayedRefs() != 0 {
		t.Fatalf("warm restart ran %d profiles / %d replays (%d refs), want all zero",
			ev2.ProfilesRun(), ev2.Replays(), ev2.ReplayedRefs())
	}

	// Store hits promote into the LRU: the next identical request is a
	// plain in-process hit, never touching the disk index again.
	resp, _ := post(t, ts2, testBody("4LC/EH4"))
	if got := resp.Header.Get("X-Memsimd-Cache"); got != "hit" {
		t.Fatalf("post-promotion cache status %q, want hit", got)
	}
}

// TestProfileRestoreServesNewDesigns pins the profile tier on its own: a
// design point never evaluated before still skips the profiling pass when
// the workload tuple's profile is on disk — only the boundary replay runs,
// and it replays the restored stream, not a re-recorded one.
func TestProfileRestoreServesNewDesigns(t *testing.T) {
	dir := t.TempDir()

	st1 := openStore(t, dir)
	_, ev1, ts1 := newTestServer(t, Config{Store: st1})
	ev1.SetStore(st1)
	post(t, ts1, testBody("4LC/EH4"))
	if ev1.ProfilesRun() != 1 {
		t.Fatalf("seed run profiled %d times, want 1", ev1.ProfilesRun())
	}
	refs := ev1.ReplayedRefs()
	ts1.Close()
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openStore(t, dir)
	defer st2.Close()
	_, ev2, ts2 := newTestServer(t, Config{Store: st2})
	ev2.SetStore(st2)
	resp, _ := post(t, ts2, testBody("NMM/N6"))
	if got := resp.Header.Get("X-Memsimd-Cache"); got != "miss" {
		t.Fatalf("new design cache status %q, want miss", got)
	}
	if ev2.ProfilesRun() != 0 {
		t.Fatalf("restored process re-profiled %d times, want 0", ev2.ProfilesRun())
	}
	if ev2.Replays() != 1 || ev2.ReplayedRefs() != refs {
		t.Fatalf("restored process replayed %d streams / %d refs, want 1 / %d",
			ev2.Replays(), ev2.ReplayedRefs(), refs)
	}
}

// TestStoreMissFallsThrough asserts an attached-but-cold store degrades to
// the normal evaluate path and still answers correctly.
func TestStoreMissFallsThrough(t *testing.T) {
	st := openStore(t, t.TempDir())
	defer st.Close()
	s, ev, ts := newTestServer(t, Config{Store: st})
	ev.SetStore(st)
	resp, body := post(t, ts, testBody("4LC/EH4"))
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %v", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Memsimd-Cache"); got != "miss" {
		t.Fatalf("cache status %q, want miss", got)
	}
	if s.storeMisses.Value() == 0 {
		t.Fatal("store miss not counted")
	}
}

// dirDigest maps every file under dir to its contents' SHA-256, so a test
// can assert that an operation left a store directory byte-identical.
func dirDigest(t *testing.T, dir string) map[string][32]byte {
	t.Helper()
	out := map[string][32]byte{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		out[path] = sha256.Sum256(b)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestStoredProfileReadsWithoutWriting pins the read-only restore path the
// offline tools use: a persisted profile record restores with zero
// profiling, while a workload tuple that was never persisted (or a store
// that does not exist) is an error that profiles nothing and leaves the
// directory byte-identical. ProfileRequest must name the tuple memsimd
// -warm profiles, so tracecat captures and memsimd restores share records.
func TestStoredProfileReadsWithoutWriting(t *testing.T) {
	dir := t.TempDir()
	absent := filepath.Join(dir, "absent")
	if _, _, err := OpenStoredProfile(absent, "CG", testScale); err == nil {
		t.Fatal("OpenStoredProfile on a missing directory succeeded")
	}
	if _, err := os.Stat(absent); !os.IsNotExist(err) {
		t.Fatalf("OpenStoredProfile created %s (stat err %v)", absent, err)
	}

	req := &EvalRequest{Design: DesignSpec{Family: "reference"}, Workload: "CG", Scale: testScale, WorkloadScale: testWScale}
	if apiErr := req.Normalize(); apiErr != nil {
		t.Fatal(apiErr)
	}
	st1 := openStore(t, dir)
	ev1 := NewEvaluator(0, nil)
	ev1.SetStore(st1)
	if _, err := ev1.Evaluate(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	// The restore OpenStoredProfile runs, on the persisted tuple (the
	// co-scaled ProfileRequest tuple would cost a full-size profile here).
	st2 := openStore(t, dir)
	ev2 := NewEvaluator(0, nil)
	ev2.SetStore(st2)
	wp, ok := ev2.restoreProfile(profileKey(req))
	if !ok || wp.Boundary.Len() == 0 || wp.Sketch == nil {
		t.Fatalf("persisted profile did not restore (ok=%v)", ok)
	}
	if ev2.ProfilesRun() != 0 {
		t.Fatalf("restore profiled %d times, want 0", ev2.ProfilesRun())
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}

	warm := &EvalRequest{Design: DesignSpec{Family: "reference"}, Workload: "CG", Scale: testScale}
	if apiErr := warm.NormalizeWith(tech.Builtin()); apiErr != nil {
		t.Fatal(apiErr)
	}
	if pr, err := ProfileRequest("CG", testScale); err != nil || profileKey(pr) != profileKey(warm) {
		t.Fatalf("ProfileRequest key differs from the memsimd -warm key (err %v)", err)
	}

	before := dirDigest(t, dir)
	if _, _, err := OpenStoredProfile(dir, "CG", testScale); err == nil {
		t.Fatal("OpenStoredProfile restored a tuple that was never persisted")
	}
	if after := dirDigest(t, dir); !reflect.DeepEqual(before, after) {
		t.Fatal("a missed OpenStoredProfile changed the store directory")
	}
}
