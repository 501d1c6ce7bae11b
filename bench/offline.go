package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"sort"
	"time"

	"hybridmem/internal/analytic"
	"hybridmem/internal/exp"
	"hybridmem/internal/model"
	"hybridmem/internal/obs"
)

// expectedGridJSON is every exact Table 2/3 evaluation of every Table 4
// workload at the fixed configuration, recorded with -record. JSON
// round-trips float64 exactly, so results compare against it bit for bit.
//
//go:embed testdata/expected_grid.json
var expectedGridJSON []byte

// gridFile is the layout of testdata/expected_grid.json.
type gridFile struct {
	Scale         uint64     `json:"scale"`
	WorkloadScale uint64     `json:"workload_scale"`
	Cases         []gridCase `json:"cases"`
}

type gridCase struct {
	Workload string           `json:"workload"`
	Design   string           `json:"design"`
	Eval     model.Evaluation `json:"eval"`
}

// gridKey names one design point of the expected grid.
func gridKey(workload, design string) string { return workload + "|" + design }

// loadExpectedGrid returns the recorded evaluations keyed by gridKey. It
// fails unless they were recorded at cfg's scales and cover its grid.
func loadExpectedGrid(cfg config) (map[string]model.Evaluation, error) {
	var f gridFile
	if err := json.Unmarshal(expectedGridJSON, &f); err != nil {
		return nil, fmt.Errorf("expected grid: %w", err)
	}
	if f.Scale != cfg.Scale || f.WorkloadScale != cfg.WorkloadScale || len(f.Cases) != len(cfg.Suite)*cfg.GridPoints {
		return nil, fmt.Errorf("expected grid holds %d cases at scale %d/%d; re-record it with -record",
			len(f.Cases), f.Scale, f.WorkloadScale)
	}
	m := make(map[string]model.Evaluation, len(f.Cases))
	for _, c := range f.Cases {
		m[gridKey(c.Workload, c.Design)] = c.Eval
	}
	return m, nil
}

// suiteState is the offline workloads' set-up: the profiled suite, and the
// run log its design points report their service times to.
type suiteState struct {
	s   *exp.Suite
	log *eventLog
}

// newSuite profiles cfg.Suite through exp.NewSuite.
func newSuite(cfg config) (suiteState, func(), error) {
	log := newEventLog()
	s, err := exp.NewSuite(exp.Config{
		Scale: cfg.Scale, WorkloadScale: cfg.WorkloadScale, Workers: workers,
		Workloads: cfg.Suite, Log: obs.NewLogger(log),
	})
	return suiteState{s: s, log: log}, func() {}, err
}

// replayCtx is the context RunJobs calls run under: in a traced run it
// carries a root span and a stage accumulator, which turns on the
// program's own per-stage timing.
func (r *run) replayCtx() context.Context {
	if !r.traced {
		return context.Background()
	}
	ctx, _, _ := obs.NewRunContext(context.Background())
	return ctx
}

// gridJobs lists the first cfg.GridPoints grid points of every suite
// workload, with the matching expected-grid keys.
func gridJobs(cfg config, s *exp.Suite) ([]exp.Job, []string, error) {
	var jobs []exp.Job
	var keys []string
	for _, wp := range s.Profiles {
		for _, g := range grid()[:cfg.GridPoints] {
			b, err := g.backend(s.Registry(), cfg.Scale, wp.Footprint)
			if err != nil {
				return nil, nil, err
			}
			jobs = append(jobs, exp.Job{WP: wp, B: b})
			keys = append(keys, gridKey(wp.Name, b.Name))
		}
	}
	return jobs, keys, nil
}

// boundaryRefs sums the boundary-stream lengths of the jobs' workloads: the
// references their exact replays read.
func boundaryRefs(jobs []exp.Job) float64 {
	var n int
	for _, j := range jobs {
		n += j.WP.Boundary.Len()
	}
	return float64(n)
}

// suiteBoundaryRefs sums the suite's boundary-stream lengths.
func suiteBoundaryRefs(s *exp.Suite) float64 {
	var n int
	for _, wp := range s.Profiles {
		n += wp.Boundary.Len()
	}
	return float64(n)
}

// digestOf is a short hex SHA-256 of v's JSON encoding.
func digestOf(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return "unencodable"
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// millis converts a duration to float milliseconds.
func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// sweepExact runs the full exact grid through RunJobs, pass after pass, in a
// seeded job order, and checks every evaluation against the recorded grid.
// Each pass is one RunJobs call, as a paperrepro or sweep invocation makes.
func sweepExact(r *run) error {
	st, release, err := setUp(r, func() (suiteState, func(), error) { return newSuite(r.cfg) })
	if err != nil {
		return err
	}
	defer release()
	jobs, keys, err := gridJobs(r.cfg, st.s)
	if err != nil {
		return err
	}
	st.log.takePoints()

	var rates, lat []float64
	var last time.Duration
	start := time.Now()
	for pass := 0; pass == 0 || r.another(start, last); pass++ {
		order := permutation(draw(r.seed, streamOrder, uint64(pass)), len(jobs))
		shuffled := make([]exp.Job, len(jobs))
		for i, j := range order {
			shuffled[i] = jobs[j]
		}
		t0 := time.Now()
		evals, err := exp.RunJobs(r.replayCtx(), shuffled, workers)
		t1 := time.Now()
		last = t1.Sub(t0)
		r.attempt(len(jobs))
		lat = append(lat, r.hostMillis(st.log.takePoints(), t0, t1)...)
		rates = append(rates, float64(len(jobs))/r.hostSeconds(t0, t1))
		if err != nil {
			for range jobs {
				r.fail("sweep pass %d: %v", pass, err)
			}
			continue
		}
		canon := make([]model.Evaluation, len(jobs))
		for i, j := range order {
			canon[j] = evals[i]
		}
		for i, ev := range canon {
			if want, ok := r.grid[keys[i]]; r.grid != nil && (!ok || want != ev) {
				r.fail("sweep %s: evaluation differs from the expected grid", keys[i])
			}
		}
		if pass == 0 {
			r.digest = digestOf(canon)
		}
	}
	r.set("designpts_per_s", median(rates))
	r.setLatency(lat)
	r.set("sim.boundary_refs", suiteBoundaryRefs(st.s))
	r.set("sim.replayed_refs", boundaryRefs(jobs))
	return nil
}

// recordGrid writes the expected grid for the fixed configuration to path:
// one RunJobs call over every grid point of every Table 4 workload.
func recordGrid(path string) error {
	cfg := fixedConfig
	st, _, err := newSuite(cfg)
	if err != nil {
		return err
	}
	jobs, _, err := gridJobs(cfg, st.s)
	if err != nil {
		return err
	}
	evals, err := exp.RunJobs(context.Background(), jobs, workers)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "{\"scale\":%d,\"workload_scale\":%d,\"cases\":[\n", cfg.Scale, cfg.WorkloadScale)
	for i, ev := range evals {
		line, err := json.Marshal(gridCase{Workload: jobs[i].WP.Name, Design: jobs[i].B.Name, Eval: ev})
		if err != nil {
			return err
		}
		buf.Write(line)
		if i < len(evals)-1 {
			buf.WriteByte(',')
		}
		buf.WriteByte('\n')
	}
	buf.WriteString("]}\n")
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// relErr is |pred-exact|/|exact|.
func relErr(pred, exact float64) float64 {
	if exact == 0 {
		if pred == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(pred-exact) / math.Abs(exact)
}

// grossRelErr is the AMAT error beyond which a promoted point counts as a
// failed operation: far outside the predictor's stated 4% envelope, so it
// catches a broken predictor or replay, while envelope misses the model is
// known to make are counted and reported instead (see README.md).
const grossRelErr = 0.25

// lowestEDP returns the n distinct screened designs with the lowest
// predicted EDP, ties broken by geometry so the choice is deterministic.
func lowestEDP(screened map[geometry]model.Evaluation, n int) []geometry {
	gs := make([]geometry, 0, len(screened))
	for g := range screened {
		gs = append(gs, g)
	}
	sort.Slice(gs, func(i, j int) bool {
		a, b := gs[i], gs[j]
		if ea, eb := screened[a].EDP, screened[b].EDP; ea != eb {
			return ea < eb
		}
		if a.CacheTech != b.CacheTech {
			return a.CacheTech < b.CacheTech
		}
		if a.CacheSize != b.CacheSize {
			return a.CacheSize < b.CacheSize
		}
		if a.Page != b.Page {
			return a.Page < b.Page
		}
		return a.MemTech < b.MemTech
	})
	return gs[:min(n, len(gs))]
}

// exploreAnalytic is cmd/explore's two-fidelity search, pass after pass:
// screen cfg.Candidates seeded custom designs on every suite workload with
// the analytic predictor, then replay each workload's cfg.Promote best
// through RunJobs and compare prediction against replay.
func exploreAnalytic(r *run) error {
	st, release, err := setUp(r, func() (suiteState, func(), error) { return newSuite(r.cfg) })
	if err != nil {
		return err
	}
	defer release()
	s := st.s
	reg := s.Registry()
	preds := make([]*analytic.Predictor, len(s.Profiles))
	for i, wp := range s.Profiles {
		if preds[i], err = wp.Predictor(); err != nil {
			return err
		}
	}
	st.log.takePoints()

	var (
		rates, lat   []float64
		relSum       float64
		relN, beyond int
		predicts     int
		unsupported  int
		lastJobs     []exp.Job
		lastEvals    []model.Evaluation
		last         time.Duration
	)
	start := time.Now()
	for pass := 0; pass == 0 || r.another(start, last); pass++ {
		t0 := time.Now()
		cands := make([]geometry, r.cfg.Candidates)
		for i := range cands {
			cands[i] = customGeometry(r.seed, streamExplore, uint64(pass*len(cands)+i))
		}
		var jobs []exp.Job
		var predicted []model.Evaluation
		for w, wp := range s.Profiles {
			screened := make(map[geometry]model.Evaluation, 512)
			for _, g := range cands {
				b, err := g.backend(reg, "explore", wp.Footprint)
				if err != nil {
					return err
				}
				p, err := preds[w].Predict(b)
				var refused *analytic.UnsupportedError
				if errors.As(err, &refused) {
					unsupported++
					continue
				}
				if err != nil {
					r.fail("explore screen %+v on %s: %v", g, wp.Name, err)
					continue
				}
				screened[g] = p.Eval
			}
			for _, g := range lowestEDP(screened, r.cfg.Promote) {
				b, err := g.backend(reg, "explore", wp.Footprint)
				if err != nil {
					return err
				}
				jobs = append(jobs, exp.Job{WP: wp, B: b})
				predicted = append(predicted, screened[g])
			}
		}
		screens := len(cands) * len(s.Profiles)
		predicts += screens
		r.attempt(screens)
		evals, err := exp.RunJobs(r.replayCtx(), jobs, workers)
		t1 := time.Now()
		last = t1.Sub(t0)
		r.attempt(len(jobs))
		lat = append(lat, r.hostMillis(st.log.takePoints(), t0, t1)...)
		rates = append(rates, float64(screens+len(jobs))/r.hostSeconds(t0, t1))
		if err != nil {
			for range jobs {
				r.fail("explore pass %d promotion: %v", pass, err)
			}
			continue
		}
		for i, ev := range evals {
			ea := relErr(predicted[i].AMATNanos, ev.AMATNanos)
			relSum += ea
			relN++
			if ea > analytic.AMATTolerance || relErr(predicted[i].EDP, ev.EDP) > analytic.EDPTolerance {
				beyond++
			}
			if !(ev.AMATNanos > 0) || !(ea <= grossRelErr) {
				r.fail("explore %s on %s: exact AMAT %g, predicted %g", jobs[i].B.Name, jobs[i].WP.Name, ev.AMATNanos, predicted[i].AMATNanos)
			}
		}
		if pass == 0 {
			r.digest = digestOf(evals)
			r.set("sim.replayed_refs", boundaryRefs(jobs))
		}
		lastJobs, lastEvals = jobs, evals
	}

	// Outside the measured phase: the first promoted design of each
	// workload in the last pass, replayed again through the serial
	// reference path, must match its fan-out result bit for bit.
	seen := map[*exp.WorkloadProfile]bool{}
	for i, j := range lastJobs {
		if seen[j.WP] {
			continue
		}
		seen[j.WP] = true
		r.attempt(1)
		ev, err := j.WP.EvaluateSerialCtx(context.Background(), j.B)
		if err != nil || ev != lastEvals[i] {
			r.fail("explore %s on %s: serial replay differs from fan-out (%v)", j.B.Name, j.WP.Name, err)
		}
	}

	r.set("designpts_per_s", median(rates))
	r.setLatency(lat)
	r.set("sim.boundary_refs", suiteBoundaryRefs(s))
	r.set("analytic.predicts", float64(predicts))
	r.set("analytic.unsupported_ratio", float64(unsupported)/float64(predicts))
	if relN > 0 {
		fmt.Printf("explore_analytic promoted=%d relerr_amat_mean=%.5f beyond_envelope=%d\n", relN, relSum/float64(relN), beyond)
	}
	return nil
}
