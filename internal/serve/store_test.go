package serve

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"io/fs"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"hybridmem/internal/exp"
	"hybridmem/internal/fault"
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

// guardStore supervises st without self-healing, as the offline tools do.
func guardStore(st *store.Store) *StoreGuard {
	return NewStoreGuard(st, nil, fault.RetryPolicy{}, nil)
}

// newStoreServer is newTestServer with st as the durable tier of both the
// server's results and its evaluator's profiles, through one guard.
func newStoreServer(t *testing.T, st *store.Store) (*Server, *Evaluator, *httptest.Server) {
	t.Helper()
	g := guardStore(st)
	s, ev, ts := newTestServer(t, Config{StoreGuard: g})
	ev.SetStoreGuard(g)
	return s, ev, ts
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
	_, ev1, ts1 := newStoreServer(t, st1)
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
	_, ev2, ts2 := newStoreServer(t, st2)
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
	_, ev1, ts1 := newStoreServer(t, st1)
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
	_, ev2, ts2 := newStoreServer(t, st2)
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
	s, _, ts := newStoreServer(t, st)
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

// TestHostileSketchReprofiles: a stored profile record without a sketch,
// or whose sketch breaks the capture invariants, is a restore miss, not
// data. The next request re-profiles the workload, and its write-through
// replaces the record with one that restores.
func TestHostileSketchReprofiles(t *testing.T) {
	dir := t.TempDir()
	req := &EvalRequest{Design: DesignSpec{Family: "reference"}, Workload: "CG", Scale: testScale, WorkloadScale: testWScale}
	if apiErr := req.Normalize(); apiErr != nil {
		t.Fatal(apiErr)
	}
	key := profileStorePrefix + profileKey(req)

	st := openStore(t, dir)
	ev := NewEvaluator(0, nil)
	ev.SetStoreGuard(guardStore(st))
	if _, err := ev.Evaluate(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		corrupt func(m *exp.ProfileManifest)
	}{
		{"70 access buckets", func(m *exp.ProfileManifest) {
			for i := range m.Sketch.Grans {
				h := &m.Sketch.Grans[i].Access
				h.Buckets = append(h.Buckets, make([]uint64, 70-len(h.Buckets))...)
				h.Buckets[65] = 1 << 40
			}
		}},
		{"no sketch", func(m *exp.ProfileManifest) { m.Sketch = nil }},
	}
	for _, c := range cases {
		boundary, meta, ok, err := st.GetStream(key)
		if err != nil || !ok {
			t.Fatalf("%s: profile record missing (ok=%v err=%v)", c.name, ok, err)
		}
		var m exp.ProfileManifest
		if err := json.Unmarshal(meta, &m); err != nil {
			t.Fatal(err)
		}
		c.corrupt(&m)
		if meta, err = json.Marshal(&m); err != nil {
			t.Fatal(err)
		}
		if err := st.PutStream(key, boundary, meta); err != nil {
			t.Fatal(err)
		}

		for i, wantProfiles := range []uint64{1, 0} {
			ev := NewEvaluator(0, nil)
			ev.SetStoreGuard(guardStore(st))
			if _, err := ev.Evaluate(context.Background(), req); err != nil {
				t.Fatal(err)
			}
			if ev.ProfilesRun() != wantProfiles {
				t.Fatalf("%s: process %d profiled %d times, want %d", c.name, i+2, ev.ProfilesRun(), wantProfiles)
			}
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
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
	ev1.SetStoreGuard(guardStore(st1))
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
	ev2.SetStoreGuard(guardStore(st2))
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

// woundedGuard opens a store at dir whose first append tears, supervises
// it with reopen and sleep, and wounds it with one write, which starts the
// background heal.
func woundedGuard(t *testing.T, dir string, reopen func() (*store.Store, error),
	sleep func(context.Context, time.Duration) error) *StoreGuard {
	t.Helper()
	var torn atomic.Bool
	st, err := store.Open(dir, store.Options{TornWrite: func(_ string, _ int64, rec []byte) int {
		if torn.CompareAndSwap(false, true) {
			return len(rec) / 2
		}
		return -1
	}})
	if err != nil {
		t.Fatal(err)
	}
	g := NewStoreGuard(st, reopen, fault.RetryPolicy{Sleep: sleep}, nil)
	if err := g.PutDoc("k", []byte("v")); err == nil {
		t.Fatal("torn write did not fail")
	}
	return g
}

// TestStoreGuardCloseStopsHeal: Close ends a heal in flight. A guard
// wounded while its reopen is gated, closed during the backoff, and then
// ungated runs no further reopen and stays degraded; and a reopen already
// running when Close begins yields a store that is closed, not installed.
func TestStoreGuardCloseStopsHeal(t *testing.T) {
	t.Run("during backoff", func(t *testing.T) {
		dir := t.TempDir()
		var gate atomic.Bool
		var reopens atomic.Int64
		reopen := func() (*store.Store, error) {
			reopens.Add(1)
			if !gate.Load() {
				return nil, errors.New("reopen gated")
			}
			return store.Open(dir, store.Options{})
		}
		sleeping, woke, wake := make(chan struct{}), make(chan struct{}), make(chan struct{})
		sleep := func(ctx context.Context, _ time.Duration) error {
			defer close(woke)
			close(sleeping)
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-wake:
				return nil
			}
		}
		g := woundedGuard(t, dir, reopen, sleep)
		<-sleeping // the first reopen failed; the heal is backing off
		if err := g.Close(); err != nil {
			t.Fatal(err)
		}
		select {
		case <-woke:
		default:
			t.Fatal("Close returned while the heal was still backing off")
		}
		gate.Store(true)
		close(wake)
		if n := reopens.Load(); n != 1 {
			t.Fatalf("reopen ran %d times, want 1 (none after Close)", n)
		}
		if s := g.State(); s != StoreStateDegraded {
			t.Fatalf("closed guard state = %q, want %q", s, StoreStateDegraded)
		}
	})

	t.Run("during reopen", func(t *testing.T) {
		dir := t.TempDir()
		reopening, proceed := make(chan struct{}), make(chan struct{})
		var reopened *store.Store
		reopen := func() (*store.Store, error) {
			close(reopening)
			<-proceed
			st, err := store.Open(dir, store.Options{})
			reopened = st
			return st, err
		}
		g := woundedGuard(t, dir, reopen, nil)
		<-reopening
		closed := make(chan error)
		go func() { closed <- g.Close() }()
		<-g.ctx.Done() // Close has begun
		close(proceed)
		if err := <-closed; err != nil {
			t.Fatal(err)
		}
		if reopened == nil {
			t.Fatal("reopen did not complete before Close returned")
		}
		if _, _, err := reopened.GetDoc("k"); err == nil {
			t.Fatal("the store reopened after Close is still open")
		}
		if s := g.State(); s != StoreStateDegraded {
			t.Fatalf("closed guard state = %q, want %q", s, StoreStateDegraded)
		}
	})
}
