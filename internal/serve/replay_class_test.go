package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"hybridmem/internal/core"
	"hybridmem/internal/design"
	"hybridmem/internal/obs"
	"hybridmem/internal/tech"
)

// workloadRequest normalizes an exact request for design on workload at
// the test scales.
func workloadRequest(t *testing.T, workload string, d DesignSpec, f *FaultSpec) *EvalRequest {
	t.Helper()
	r := &EvalRequest{Design: d, Workload: workload, Scale: testScale, WorkloadScale: testWScale, Fault: f}
	if apiErr := r.Normalize(); apiErr != nil {
		t.Fatalf("%+v: %v", d, apiErr)
	}
	return r
}

// gridDesigns is the paper's 91-point grid: Table 3's N1-N9 under every
// NVM, and Table 2's EH1-EH8 under every LLC, over DRAM (4LC) and over
// every NVM (4LCNVM).
func gridDesigns() []DesignSpec {
	cat := tech.Builtin()
	var out []DesignSpec
	for _, n := range design.NConfigs {
		for _, nvm := range cat.NVMs() {
			out = append(out, DesignSpec{Family: "NMM", Config: n.Name, NVM: nvm.Name})
		}
	}
	for _, eh := range design.EHConfigs {
		for _, llc := range cat.LLCs() {
			out = append(out, DesignSpec{Family: "4LC", Config: eh.Name, LLC: llc.Name})
			for _, nvm := range cat.NVMs() {
				out = append(out, DesignSpec{Family: "4LCNVM", Config: eh.Name, LLC: llc.Name, NVM: nvm.Name})
			}
		}
	}
	return out
}

// customTechDesigns returns seeded custom designs: geometries of one or
// two cache levels (1-16 ways, write-back or write-through, prefetch 0-2),
// each under three (cache, memory) technology pairs, so every geometry is
// a three-member replay class. Geometry 0 is direct-mapped and geometry 1
// writes through.
func customTechDesigns(seed uint64, geometries int) []DesignSpec {
	x := seed
	next := func(k uint64) uint64 { // splitmix64, reduced mod k
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		return (z ^ (z >> 31)) % k
	}
	level := func(minLine uint64) CustomLevel {
		line := minLine << next(4)
		assoc := int(1 + next(16))
		sets := uint64(1) << (2 + next(6))
		return CustomLevel{SizeBytes: line * sets * uint64(assoc), LineBytes: line, Assoc: assoc,
			WriteThrough: next(4) == 0, PrefetchNext: int(next(3))}
	}
	pairs := [3][2]string{{"eDRAM", "PCM"}, {"HMC", "STTRAM"}, {"DRAM", "FeRAM"}}
	var out []DesignSpec
	for g := 0; g < geometries; g++ {
		levels := []CustomLevel{level(64 << next(3))}
		if next(3) == 0 {
			levels = append(levels, level(levels[0].LineBytes))
		}
		switch g {
		case 0:
			levels[0].Assoc = 1
		case 1:
			levels[0].WriteThrough = true
		}
		for v, p := range pairs {
			ls := append([]CustomLevel(nil), levels...)
			for i := range ls {
				ls[i].Tech = p[0]
			}
			out = append(out, DesignSpec{Family: "custom", Custom: &CustomSpec{
				Name:   fmt.Sprintf("g%d/%d", g, v),
				Caches: ls,
				Memory: CustomMemory{Tech: p[1]},
			}})
		}
	}
	return out
}

// sameMetrics reports whether two metric sets are equal bit for bit.
func sameMetrics(a, b map[string]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		w, ok := b[k]
		if !ok || math.Float64bits(v) != math.Float64bits(w) {
			return false
		}
	}
	return true
}

// TestSnapshotTierMatchesOwnReplay is the serving side of the replay-class
// property: on one evaluator per workload, every grid design, seeded custom
// designs (each geometry under three technology pairs) and fault-injected
// designs, served concurrently, answer exactly what a fresh replay of the
// design gives, while the evaluator replays once per (profile, replay key)
// class plus once per design without a replay key.
func TestSnapshotTierMatchesOwnReplay(t *testing.T) {
	ctx := context.Background()
	for _, workload := range []string{"CG", "BT"} {
		t.Run(workload, func(t *testing.T) {
			var reqs []*EvalRequest
			for _, d := range append(gridDesigns(), customTechDesigns(uint64(len(workload)), 14)...) {
				reqs = append(reqs, workloadRequest(t, workload, d, nil))
			}
			custom := len(reqs) - 91
			for _, d := range []DesignSpec{
				{Family: "NMM", Config: "N6", NVM: "PCM"},
				{Family: "NMM", Config: "N6", NVM: "STTRAM"},
				{Family: "4LC", Config: "EH4", LLC: "eDRAM"},
			} {
				reqs = append(reqs, workloadRequest(t, workload, d, &FaultSpec{Seed: 3, BitErrorRate: 1e-6}))
			}
			if custom < 40 {
				t.Fatalf("%d custom designs, want >= 40", custom)
			}

			ev := NewEvaluator(0, nil)
			wp, err := ev.profile(ctx, reqs[0])
			if err != nil {
				t.Fatal(err)
			}
			classes := map[string]int{} // replay key -> members
			unkeyed := 0
			backends := make([]design.Backend, len(reqs))
			for i, r := range reqs {
				b, err := r.registry().Backend(r.Design, r.Scale, wp.Footprint)
				if err != nil {
					t.Fatal(err)
				}
				b.Fault = r.Fault.config()
				backends[i] = b
				if key, ok := b.ReplayKey(); ok {
					classes[key]++
				} else {
					unkeyed++
				}
			}
			for key, n := range classes {
				if n < 3 {
					t.Fatalf("replay class %q has %d technology variants, want >= 3", key, n)
				}
			}

			shared0 := obs.NewCounter("memsimd.replays_shared").Value()
			results := make([]*EvalResult, len(reqs))
			var next atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := int(next.Add(1) - 1); i < len(reqs); i = int(next.Add(1) - 1) {
						res, err := ev.Evaluate(ctx, reqs[i])
						if err != nil {
							t.Errorf("%s: %v", reqs[i].Design.Label(), err)
							continue
						}
						results[i] = res
					}
				}()
			}
			wg.Wait()
			if t.Failed() {
				return
			}

			if want := uint64(len(classes) + unkeyed); ev.Replays() != want {
				t.Errorf("%d requests replayed %d times, want %d (%d classes + %d designs without a replay key)",
					len(reqs), ev.Replays(), want, len(classes), unkeyed)
			}
			if got, want := obs.NewCounter("memsimd.replays_shared").Value()-shared0, uint64(len(reqs)-unkeyed-len(classes)); got != want {
				t.Errorf("replays_shared advanced by %d, want %d", got, want)
			}
			var own uint64
			for i, res := range results {
				want, err := wp.EvaluateCtx(ctx, backends[i])
				if err != nil {
					t.Fatal(err)
				}
				if !sameMetrics(res.Metrics, evalMetrics(want)) {
					t.Fatalf("%s: served metrics differ from its own replay:\n got: %v\nwant: %v",
						backends[i].Name, res.Metrics, evalMetrics(want))
				}
				switch res.replay {
				case replayOwn:
					own++
					if res.ReplayRefs != uint64(wp.Boundary.Len()) {
						t.Errorf("%s: own replay reports replay_refs %d", backends[i].Name, res.ReplayRefs)
					}
				case replayShared:
					if res.ReplayRefs != 0 {
						t.Errorf("%s: shared answer reports replay_refs %d, want 0", backends[i].Name, res.ReplayRefs)
					}
				default:
					t.Errorf("%s: replay tag %q", backends[i].Name, res.replay)
				}
			}
			if own != ev.Replays() {
				t.Errorf("%d answers tagged own, %d replays", own, ev.Replays())
			}
		})
	}
}

// gateCtx is a leader's request context that is cancelled mid-replay: its
// first Err call (the first block boundary) reports live and closes
// started; the second waits for release and, like every later call,
// reports context.Canceled.
type gateCtx struct {
	context.Context
	calls   atomic.Int32
	started chan struct{}
	release <-chan struct{}
}

func (c *gateCtx) Err() error {
	switch c.calls.Add(1) {
	case 1:
		close(c.started)
		return nil
	case 2:
		<-c.release
	}
	return context.Canceled
}

// waitingCtx is a follower's live request context that reports, by closing
// waiting, when the follower starts to wait on a flight (the first Done
// call on its path).
type waitingCtx struct {
	context.Context
	once    sync.Once
	waiting chan struct{}
}

func (c *waitingCtx) Done() <-chan struct{} {
	c.once.Do(func() { close(c.waiting) })
	return c.Context.Done()
}

// TestSnapshotTierLeaderCancelled pins the flight's context pitfall: the
// replay of a class runs under its leader's request context, so a leader
// cancelled mid-replay must neither fail a live follower of the same class
// (the follower leads a new replay under its own context) nor leave a
// snapshot behind.
func TestSnapshotTierLeaderCancelled(t *testing.T) {
	bg := context.Background()
	ev := NewEvaluator(0, nil)
	// A 4x larger CG footprint than the other tests' gives a boundary
	// stream of several blocks.
	pcm := workloadRequest(t, "CG", DesignSpec{Family: "NMM", Config: "N6", NVM: "PCM"}, nil)
	sttram := workloadRequest(t, "CG", DesignSpec{Family: "NMM", Config: "N6", NVM: "STTRAM"}, nil)
	pcm.WorkloadScale, sttram.WorkloadScale = testWScale/4, testWScale/4
	wp, err := ev.profile(bg, pcm) // profile first: only the replay polls ctx
	if err != nil {
		t.Fatal(err)
	}
	if wp.Boundary.Blocks() < 2 {
		t.Fatalf("boundary stream has %d blocks; the leader cannot be cancelled mid-replay", wp.Boundary.Blocks())
	}

	// Alone, a cancelled leader fails with its own context error and
	// stores nothing.
	closed := make(chan struct{})
	close(closed)
	lone := &gateCtx{Context: bg, started: make(chan struct{}), release: closed}
	if _, err := ev.Evaluate(lone, pcm); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled leader: err %v, want context.Canceled", err)
	}
	if n := ev.snaps.Len(); n != 0 || ev.Replays() != 0 {
		t.Fatalf("a cancelled replay left %d snapshots and counted %d replays", n, ev.Replays())
	}

	follower := &waitingCtx{Context: obs.ContextWithStages(bg, obs.NewStages()), waiting: make(chan struct{})}
	leader := &gateCtx{Context: bg, started: make(chan struct{}), release: follower.waiting}
	leaderErr := make(chan error, 1)
	go func() {
		_, err := ev.Evaluate(leader, pcm)
		leaderErr <- err
	}()
	<-leader.started // the leader's flight is registered and replaying
	res, err := ev.Evaluate(follower, sttram)
	if err != nil {
		t.Fatalf("live follower failed with its cancelled leader's error: %v", err)
	}
	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader err %v, want context.Canceled", err)
	}
	stages, _ := obs.StagesFrom(follower).Fields()["stages"].(map[string]float64)
	if _, waited := stages["singleflight_wait"]; !waited {
		t.Fatal("the follower never waited on the leader's flight")
	}
	if res.replay != replayOwn || ev.Replays() != 1 {
		t.Fatalf("follower answered %q after %d replays, want its own single replay", res.replay, ev.Replays())
	}
	b, err := sttram.registry().Backend(sttram.Design, sttram.Scale, wp.Footprint)
	if err != nil {
		t.Fatal(err)
	}
	want, err := wp.EvaluateCtx(bg, b)
	if err != nil {
		t.Fatal(err)
	}
	if !sameMetrics(res.Metrics, evalMetrics(want)) {
		t.Fatal("the follower's answer differs from its own replay")
	}
	if n := ev.snaps.Len(); n != 1 {
		t.Fatalf("tier holds %d snapshots, want the follower's one", n)
	}
	// The class is now resident: the cancelled leader's design is answered
	// from it.
	if res, err := ev.Evaluate(bg, pcm); err != nil || res.replay != replayShared || ev.Replays() != 1 {
		t.Fatalf("resident class: err %v, replay %q, %d replays", err, res.replay, ev.Replays())
	}
}

// TestSnapshotTierFollowerCheckFails asserts a class member whose own
// geometry check fails gets its own error, whether or not the class is
// resident, and never disturbs the valid member's answer.
func TestSnapshotTierFollowerCheckFails(t *testing.T) {
	ctx := context.Background()
	ev := NewEvaluator(0, nil)
	r := workloadRequest(t, "CG", DesignSpec{Family: "4LC", Config: "EH3", LLC: "eDRAM"}, nil)
	wp, err := ev.profile(ctx, r)
	if err != nil {
		t.Fatal(err)
	}
	bad := tech.EDRAM
	bad.Name, bad.ReadNS = "bad-eDRAM", 0
	reg := design.DefaultRegistry()
	good := reg.FourLCWith(design.EHConfigs[2], tech.EDRAM, testScale, wp.Footprint)
	invalid := reg.FourLCWith(design.EHConfigs[2], bad, testScale, wp.Footprint)
	if keyOf(good) != keyOf(invalid) {
		t.Fatal("the two designs are not one replay class")
	}
	_, own := invalid.Build()
	if own == nil {
		t.Fatal("the invalid technology built")
	}
	want, err := wp.EvaluateCtx(ctx, good)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range []design.Backend{invalid, good, invalid, good} {
		ev0, replay, err := ev.evaluateExact(ctx, wp, b)
		if b.Name == invalid.Name {
			if err == nil || err.Error() != own.Error() {
				t.Fatalf("step %d: invalid member err %v, want its own Build error %v", i, err, own)
			}
			continue
		}
		if err != nil || ev0 != want {
			t.Fatalf("step %d: valid member err %v, equal to its own replay %v", i, err, ev0 == want)
		}
		if wantReplay := []string{replayOwn, replayShared}[i/2]; replay != wantReplay {
			t.Fatalf("step %d: valid member answered %q, want %q", i, replay, wantReplay)
		}
	}
	if ev.Replays() != 1 {
		t.Fatalf("%d replays, want 1", ev.Replays())
	}
}

// keyOf is b's replay key, or "" when it has none.
func keyOf(b design.Backend) string {
	k, _ := b.ReplayKey()
	return k
}

// TestUnkeyedDesignsReplayAlone asserts fault-injected, row-buffer and
// partitioned (NDM) designs bypass the snapshot tier: every request
// replays, even a repeat of one geometry, and none leaves a snapshot.
func TestUnkeyedDesignsReplayAlone(t *testing.T) {
	ctx := context.Background()
	ev := NewEvaluator(0, nil)
	pcm := workloadRequest(t, "CG", DesignSpec{Family: "NMM", Config: "N6", NVM: "PCM"}, nil)
	wp, err := ev.profile(ctx, pcm)
	if err != nil {
		t.Fatal(err)
	}
	fs := &FaultSpec{Seed: 5, BitErrorRate: 1e-6}
	for _, d := range []DesignSpec{pcm.Design, {Family: "NMM", Config: "N6", NVM: "STTRAM"}, pcm.Design} {
		before := ev.Replays()
		if _, err := ev.Evaluate(ctx, workloadRequest(t, "CG", d, fs)); err != nil {
			t.Fatal(err)
		}
		if ev.Replays() != before+1 {
			t.Fatalf("fault-injected %s: replays %d -> %d, want one more", d.Label(), before, ev.Replays())
		}
	}
	reg := design.DefaultRegistry()
	base, err := pcm.registry().Backend(pcm.Design, pcm.Scale, wp.Footprint)
	if err != nil {
		t.Fatal(err)
	}
	ndm := reg.NDMWith(tech.PCM, []core.AddrRange{{Start: 0, End: wp.Footprint / 2}}, wp.Footprint/2, wp.Footprint, "half")
	for _, b := range []design.Backend{base.WithRowBuffer(), base.WithRowBuffer(), ndm, ndm} {
		before := ev.Replays()
		_, replay, err := ev.evaluateExact(ctx, wp, b)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if replay != replayOwn || ev.Replays() != before+1 {
			t.Fatalf("%s: answered %q, replays %d -> %d, want its own replay", b.Name, replay, before, ev.Replays())
		}
	}
	if n := ev.snaps.Len(); n != 0 {
		t.Fatalf("designs without a replay key left %d snapshots", n)
	}
}

// TestSharedAnswerOverHTTP drives three technology variants of one
// geometry through the server: each is a result-LRU miss, one replays, the
// other two are shared answers with replay_refs 0, counted in
// memsimd.replays_shared and tagged in their http_request events.
func TestSharedAnswerOverHTTP(t *testing.T) {
	var buf syncBuffer
	log := obs.NewLogger(&buf)
	ev := NewEvaluator(0, log)
	s := New(Config{Runner: ev, Log: log})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	shared0 := obs.NewCounter("memsimd.replays_shared").Value()
	for i, nvm := range []string{"PCM", "STTRAM", "FeRAM"} {
		resp, body := post(t, ts, testBody("NMM/N6/"+nvm))
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Memsimd-Cache") != "miss" {
			t.Fatalf("%s: status %d, cache %q, want a 200 miss", nvm, resp.StatusCode, resp.Header.Get("X-Memsimd-Cache"))
		}
		refs := body["replay_refs"].(float64)
		if i == 0 {
			if refs == 0 {
				t.Fatalf("%s: the replaying answer reports replay_refs 0", nvm)
			}
		} else if refs != 0 {
			t.Fatalf("%s: shared answer reports replay_refs %v, want 0", nvm, refs)
		}
	}
	if ev.Replays() != 1 {
		t.Fatalf("%d replays, want 1", ev.Replays())
	}
	if got := obs.NewCounter("memsimd.replays_shared").Value() - shared0; got != 2 {
		t.Fatalf("memsimd.replays_shared advanced by %d, want 2", got)
	}
	tags := map[string]int{}
	for _, rec := range buf.lines(t) {
		if rec["event"] == "http_request" && rec["outcome"] == "miss" {
			tag, _ := rec["replay"].(string)
			tags[tag]++
		}
	}
	if !reflect.DeepEqual(tags, map[string]int{replayOwn: 1, replayShared: 2}) {
		t.Fatalf("http_request replay tags %v, want one own and two shared", tags)
	}
}
