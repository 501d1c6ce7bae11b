package exp

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"hybridmem/internal/core"
	"hybridmem/internal/design"
	"hybridmem/internal/fault"
	"hybridmem/internal/obs"
	"hybridmem/internal/tech"
)

// customClassDesigns returns n seeded custom designs: n/2 cache geometries
// (one or two levels, 1-16 ways, write-back or write-through, prefetch 0-2)
// each built twice, under two different cache and memory technologies, so
// every geometry forms a two-member replay class.
func customClassDesigns(seed uint64, n int, footprint uint64) []design.Backend {
	x := seed
	next := func(k uint64) uint64 { // splitmix64, reduced mod k
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		return (z ^ (z >> 31)) % k
	}
	level := func(name string, t tech.Tech, minLine uint64) design.LevelSpec {
		line := minLine << next(4)          // up to 8x the level above
		assoc := int(1 + next(16))          // 1-16 ways
		sets := uint64(1) << (2 + next(6))  // 4-128 sets
		size := line * sets * uint64(assoc) // a whole number of sets
		pf := int(next(3))                  // prefetch depth 0-2
		return design.LevelSpec{Name: name, Tech: t, Size: size, Line: line, Assoc: assoc,
			WriteThrough: next(4) == 0, PrefetchNext: pf}
	}
	techs := [2]struct{ cache, mem tech.Tech }{{tech.EDRAM, tech.PCM}, {tech.HMC, tech.STTRAM}}
	var out []design.Backend
	for g := 0; len(out) < n; g++ {
		caches := []design.LevelSpec{level("C0", tech.EDRAM, 64<<next(3))}
		if next(3) == 0 {
			caches = append(caches, level("C1", tech.DRAM, caches[0].Line))
		}
		for v, tt := range techs {
			cs := append([]design.LevelSpec(nil), caches...)
			cs[0].Tech = tt.cache
			out = append(out, design.Backend{
				Name:   fmt.Sprintf("custom/%d/%d", g, v),
				Caches: cs,
				Memory: design.MemorySpec{Name: "NVM(" + tt.mem.Name + ")", Tech: tt.mem, Capacity: footprint},
			})
		}
	}
	return out
}

// keyOf is b's replay key, or "" when it has none.
func keyOf(b design.Backend) string {
	k, _ := b.ReplayKey()
	return k
}

// ownSnapshot builds b and replays wp's boundary stream into it alone.
func ownSnapshot(t *testing.T, wp *WorkloadProfile, b design.Backend) []core.LevelStats {
	t.Helper()
	built, err := b.Build()
	if err != nil {
		t.Fatalf("%s: build: %v", b.Name, err)
	}
	built.Replay(wp.Boundary)
	return built.Snapshot()
}

// TestReplayClassMatchesOwnReplay is the replay-class equivalence property:
// for every Table 2/3 design and a seeded set of custom designs on two
// catalog workloads, each design's relabelled snapshot of its class
// leader's replay deep-equals its own independent build and replay, and the
// fan-out (which replays each class once) agrees with per-design serial
// replay. It also pins what separates classes, what opts out of them, and
// that a follower's build error is its own.
func TestReplayClassMatchesOwnReplay(t *testing.T) {
	s := catalogSuite(t)
	ctx := context.Background()
	for _, wp := range s.Profiles[:2] {
		backends := append(table23Backends(t, design.DefaultRegistry(), wp.Footprint), customClassDesigns(uint64(len(wp.Name)), 40, wp.Footprint)...)
		leaders := map[string][]core.LevelStats{}
		followers := 0
		for _, b := range backends {
			key, ok := b.ReplayKey()
			if !ok {
				t.Fatalf("%s: no replay key", b.Name)
			}
			lead, seen := leaders[key]
			if !seen {
				leaders[key] = ownSnapshot(t, wp, b)
				continue
			}
			followers++
			if err := b.Check(); err != nil {
				t.Fatalf("%s: check: %v", b.Name, err)
			}
			if got, want := b.Relabel(lead), ownSnapshot(t, wp, b); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s on %s: relabelled snapshot differs from its own replay:\n got: %+v\nwant: %+v",
					b.Name, wp.Name, got, want)
			}
		}
		if followers < len(backends)/2 {
			t.Fatalf("%s: only %d of %d designs follow another's replay", wp.Name, followers, len(backends))
		}
		for i, r := range wp.EvaluateFanout(ctx, backends) {
			want, err := wp.EvaluateSerialCtx(ctx, backends[i])
			if r.Err != nil || err != nil {
				t.Fatalf("%s/%s: fan-out err %v, serial err %v", wp.Name, backends[i].Name, r.Err, err)
			}
			if r.Eval != want {
				t.Fatalf("%s/%s: fan-out diverges from serial replay", wp.Name, backends[i].Name)
			}
		}
	}

	t.Run("keys", func(t *testing.T) {
		base := design.LevelSpec{Name: "L4", Tech: tech.EDRAM, Size: 64 << 10, Line: 256, Assoc: 8}
		key := func(s design.LevelSpec) string {
			k, ok := design.Backend{Caches: []design.LevelSpec{s}}.ReplayKey()
			if !ok {
				t.Fatalf("%+v: no replay key", s)
			}
			return k
		}
		vary := map[string]func(*design.LevelSpec){
			"size":      func(s *design.LevelSpec) { s.Size *= 2 },
			"line":      func(s *design.LevelSpec) { s.Line *= 2 },
			"assoc":     func(s *design.LevelSpec) { s.Assoc = 4 },
			"policy":    func(s *design.LevelSpec) { s.WriteThrough = true },
			"prefetch":  func(s *design.LevelSpec) { s.PrefetchNext = 1 },
			"fullassoc": func(s *design.LevelSpec) { s.Assoc = 0 },
		}
		for what, f := range vary {
			s := base
			f(&s)
			if key(s) == key(base) {
				t.Errorf("a different %s gives the same replay key %q", what, key(s))
			}
		}
		// Labels and technologies are not geometry; neither is an
		// associativity the config clamps to the same line count.
		relabelled := base
		relabelled.Name, relabelled.Tech = "other", tech.HMC
		small := design.LevelSpec{Size: 1024, Line: 64, Assoc: 16}
		clamped := small
		clamped.Assoc = 64
		if key(relabelled) != key(base) || key(small) != key(clamped) {
			t.Error("labels, technology or a clamped-away associativity changed the replay key")
		}
		mem := design.Backend{Caches: []design.LevelSpec{base}, Memory: design.MemorySpec{Name: "a", Tech: tech.PCM, Capacity: 1}}
		other := mem
		other.Memory = design.MemorySpec{Name: "b", Tech: tech.FeRAM, Capacity: 2}
		if keyOf(mem) != keyOf(other) {
			t.Error("the terminal's labels changed the replay key")
		}
	})

	t.Run("opt-out", func(t *testing.T) {
		b := design.DefaultRegistry().NMMWith(design.NConfigs[0], tech.PCM, 64, 1<<20)
		for name, o := range map[string]design.Backend{
			"fault":       b.WithFault(fault.Config{Seed: 1}),
			"rowbuffer":   b.WithRowBuffer(),
			"partitioned": design.DefaultRegistry().NDMWith(tech.PCM, []core.AddrRange{{Start: 0, End: 4096}}, 4096, 1<<20, "x"),
		} {
			if _, ok := o.ReplayKey(); ok {
				t.Errorf("%s design has a replay key", name)
			}
		}
	})

	t.Run("follower-build-error", func(t *testing.T) {
		wp := s.Profiles[0]
		bad := tech.EDRAM
		bad.Name, bad.ReadNS = "bad-eDRAM", 0
		leader := design.DefaultRegistry().FourLCWith(design.EHConfigs[2], tech.EDRAM, s.Cfg.Scale, wp.Footprint)
		follower := design.DefaultRegistry().FourLCWith(design.EHConfigs[2], bad, s.Cfg.Scale, wp.Footprint)
		if keyOf(leader) != keyOf(follower) {
			t.Fatal("leader and follower are not one replay class")
		}
		_, own := follower.Build()
		if own == nil {
			t.Fatal("the invalid technology built")
		}
		// Either order: the follower fails alone with its own Build error,
		// and the valid design's result is its serial replay.
		for _, order := range [][2]design.Backend{{leader, follower}, {follower, leader}} {
			rs := wp.EvaluateFanout(context.Background(), order[:])
			gi, bi := 0, 1
			if order[0].Name == follower.Name {
				gi, bi = 1, 0
			}
			if rs[bi].Err == nil || rs[bi].Err.Error() != own.Error() {
				t.Fatalf("follower err = %v, want its own Build error %v", rs[bi].Err, own)
			}
			want, err := wp.EvaluateSerialCtx(context.Background(), leader)
			if rs[gi].Err != nil || err != nil || rs[gi].Eval != want {
				t.Fatalf("valid class member: err %v (serial %v), equal=%v", rs[gi].Err, err, rs[gi].Eval == want)
			}
		}
	})
}

// TestRunJobsSharesReplays pins the replay-class saving on the paper's
// grid: one RunJobs call over every Table 2/3 design on the seven Table 4
// workloads (91 x 7 = 637 design points) replays 17 geometries per workload
// (8 EH + 9 N, 119 in all), so 518 design points are answered by another's
// replay.
func TestRunJobsSharesReplays(t *testing.T) {
	s := withFreshClasses(catalogSuite(t))
	if len(s.Profiles) != 7 {
		t.Fatalf("suite has %d workloads, want the 7 of Table 4", len(s.Profiles))
	}
	var sets []RowSet
	for _, nvm := range tech.Builtin().NVMs() {
		sets = append(sets, RowSet{Family: design.FamilyNMM, NVM: nvm})
	}
	for _, llc := range tech.Builtin().LLCs() {
		sets = append(sets, RowSet{Family: design.Family4LC, LLC: llc})
		for _, nvm := range tech.Builtin().NVMs() {
			sets = append(sets, RowSet{Family: design.Family4LCNVM, LLC: llc, NVM: nvm})
		}
	}
	before := replaysShared.Value()
	rowSets, err := s.Rows(sets)
	if err != nil {
		t.Fatal(err)
	}
	if got := replaysShared.Value() - before; got != 518 {
		t.Fatalf("replays_shared advanced by %d, want 518 (637 design points - 119 geometries)", got)
	}
	points := 0
	for _, rows := range rowSets {
		for _, row := range rows {
			points += len(row.PerWorkload)
		}
	}
	if points != 637 {
		t.Fatalf("%d design points, want 637", points)
	}
	// Each set's rows match the set evaluated on its own.
	for i, set := range sets {
		alone, err := s.Rows([]RowSet{set})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(alone[0], rowSets[i]) {
			t.Fatalf("set %+v differs when evaluated alone", set)
		}
	}
}

// withFreshClasses returns a suite over s's profiles with an empty replay-
// class cache, so a test's replay counts do not depend on which suite calls
// ran before it.
func withFreshClasses(s *Suite) *Suite {
	c := *s
	c.classes = NewClassCache()
	return &c
}

// classReplays returns how many replay workers fan-outs have seated so far:
// one per class replay.
func classReplays() uint64 { return fanWidthHist.Snapshot().Sum }

// TestSuiteReplaysEachGeometryOnce pins the suite's class cache: paperrepro's
// Figure 1, 3 and 5 sweeps and the two heat maps span 17 cache geometries
// per workload (Table 3's nine, Table 2's eight), and a suite replays each
// once — Figure 5's geometries are Figure 3's, and the heat maps' N6 is
// Figure 1's — where one replay per figure call's class would be 27. Every
// answer equals the same call on a fresh suite, and a class member whose
// own check fails while its class is resident fails alone, with its own
// error, leaving the class to answer its valid members.
func TestSuiteReplaysEachGeometryOnce(t *testing.T) {
	s := withFreshClasses(suite(t))
	calls := []struct {
		name string
		run  func(*Suite) (any, error)
	}{
		{"NMM/PCM", func(s *Suite) (any, error) { return s.NMM(tech.PCM) }},
		{"4LC/eDRAM", func(s *Suite) (any, error) { return s.FourLC(tech.EDRAM) }},
		{"4LCNVM/eDRAM/PCM", func(s *Suite) (any, error) { return s.FourLCNVM(tech.EDRAM, tech.PCM) }},
		{"latency heat map", func(s *Suite) (any, error) { return s.LatencyHeatmap(nil, nil) }},
		{"energy heat map", func(s *Suite) (any, error) { return s.EnergyHeatmap(nil, nil) }},
	}
	before := classReplays()
	got := make([]any, len(calls))
	for i, c := range calls {
		var err error
		if got[i], err = c.run(s); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
	}
	geometries := uint64(len(design.NConfigs)+len(design.EHConfigs)) * uint64(len(s.Profiles))
	if n := classReplays() - before; n != geometries {
		t.Fatalf("the figure calls replayed %d classes, want %d (one per geometry and workload)", n, geometries)
	}
	for i, c := range calls {
		want, err := c.run(withFreshClasses(s))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("%s: the suite's answer differs from a fresh suite's", c.name)
		}
	}

	wp := s.Profiles[0]
	bad := tech.EDRAM
	bad.Name, bad.ReadNS = "bad-eDRAM", 0
	invalid := s.reg.FourLCWith(design.EHConfigs[2], bad, s.Cfg.Scale, wp.Footprint)
	valid := s.reg.FourLCWith(design.EHConfigs[2], tech.HMC, s.Cfg.Scale, wp.Footprint)
	_, own := invalid.Build()
	if own == nil {
		t.Fatal("the invalid technology built")
	}
	before, classes := classReplays(), s.classes.Len()
	if _, err := runJobs(context.Background(), s.classes, []Job{{WP: wp, B: invalid}}, 2); err == nil || err.Error() != own.Error() {
		t.Fatalf("RunJobs: invalid member err %v, want its own Build error %v", err, own)
	}
	if _, _, err := s.classes.Do(context.Background(), wp, invalid); err == nil || err.Error() != own.Error() {
		t.Fatalf("ClassCache.Do: invalid member err %v, want its own Build error %v", err, own)
	}
	evs, err := runJobs(context.Background(), s.classes, []Job{{WP: wp, B: valid}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := wp.EvaluateSerialCtx(context.Background(), valid)
	if err != nil || evs[0] != want {
		t.Fatalf("valid member after a failed one: serial err %v, equal %v", err, evs[0] == want)
	}
	if classReplays() != before || s.classes.Len() != classes {
		t.Fatalf("resident-class members replayed %d classes and changed the cache %d -> %d",
			classReplays()-before, classes, s.classes.Len())
	}
}

// TestRunJobsReplaysEveryCall pins that RunJobs keeps no snapshot between
// calls: two identical calls each decode the same, nonzero number of
// boundary blocks, even over profiles whose suite holds their classes.
func TestRunJobsReplaysEveryCall(t *testing.T) {
	s := suite(t)
	if _, err := s.NMM(tech.PCM); err != nil {
		t.Fatal(err)
	}
	var jobs []Job
	for _, wp := range s.Profiles {
		for _, cfg := range design.NConfigs {
			jobs = append(jobs, Job{WP: wp, B: s.reg.NMMWith(cfg, tech.PCM, s.Cfg.Scale, wp.Footprint)})
		}
	}
	var decoded [2]uint64
	for i := range decoded {
		before := obs.DecodedBlocks()
		if _, err := RunJobs(context.Background(), jobs, 2); err != nil {
			t.Fatal(err)
		}
		decoded[i] = obs.DecodedBlocks() - before
	}
	if decoded[0] == 0 || decoded[1] != decoded[0] {
		t.Fatalf("two identical RunJobs calls decoded %d and %d blocks, want the same nonzero count", decoded[0], decoded[1])
	}
}
