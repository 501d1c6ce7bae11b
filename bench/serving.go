package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hybridmem/internal/analytic"
	"hybridmem/internal/design"
	"hybridmem/internal/exp"
	"hybridmem/internal/fault"
	"hybridmem/internal/model"
	"hybridmem/internal/obs"
	"hybridmem/internal/serve"
	"hybridmem/internal/store"
	"hybridmem/internal/workload"
	"hybridmem/internal/workload/catalog"
)

// service is one in-process memsimd: an Evaluator and a Server with
// memsimd's defaults (4096-entry cache, MaxInFlight = GOMAXPROCS, no rate
// limit, no chaos) behind an httptest server on loopback, optionally over a
// durable store, and the keep-alive client that drives it.
type service struct {
	ev     *serve.Evaluator
	srv    *serve.Server
	ts     *httptest.Server
	guard  *serve.StoreGuard
	client *http.Client
}

// startService starts a service, over a store in storeDir unless it is
// empty. log receives the server's run events (nil = none).
func startService(storeDir string, log *obs.Logger) (*service, error) {
	svc := &service{ev: serve.NewEvaluator(0, log)}
	cfg := serve.Config{Runner: svc.ev, Log: log}
	if storeDir != "" {
		st, err := store.Open(storeDir, store.Options{})
		if err != nil {
			return nil, err
		}
		svc.guard = serve.NewStoreGuard(st, nil, fault.RetryPolicy{}, log)
		svc.ev.SetStoreGuard(svc.guard)
		cfg.StoreGuard = svc.guard
	}
	svc.srv = serve.New(cfg)
	svc.ts = httptest.NewServer(svc.srv.Handler())
	svc.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients, DisableCompression: true,
	}}
	return svc, nil
}

// stop drains the server, closes it and its connections, and closes the
// store.
func (s *service) stop() {
	s.srv.BeginShutdown()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := s.srv.Drain(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "bench: drain:", err)
	}
	s.client.CloseIdleConnections()
	s.ts.Close()
	if err := s.guard.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "bench: closing store:", err)
	}
}

// reply is one evaluate response as the client saw it.
type reply struct {
	status  int
	outcome string // X-Memsimd-Cache
	body    []byte
	ms      float64 // from send to the last body byte
}

// post sends one evaluate request and reads the whole reply.
func (s *service) post(body []byte) (reply, error) {
	req, err := http.NewRequest(http.MethodPost, s.ts.URL+"/v1/evaluate", bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	t0 := time.Now()
	resp, err := s.client.Do(req)
	if err != nil {
		return reply{}, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return reply{
		status: resp.StatusCode, outcome: resp.Header.Get("X-Memsimd-Cache"),
		body: b, ms: millis(time.Since(t0)),
	}, err
}

// expect checks that a request succeeded with the wanted outcome, counting
// a failed operation otherwise. Any non-2xx response, and any outcome
// other than the one the workload's design predicts, is a failure.
func (r *run) expect(rep reply, err error, want string) bool {
	switch {
	case err != nil:
		r.fail("request: %v", err)
	case rep.status/100 != 2:
		r.fail("request: HTTP %d: %s", rep.status, bytes.TrimSpace(rep.body))
	case rep.outcome != want:
		r.fail("request: outcome %q, want %q", rep.outcome, want)
	default:
		return true
	}
	return false
}

// requestBody is the JSON evaluate request for one design on one workload
// at the run's scales.
func requestBody(cfg config, d serve.DesignSpec, workloadName, fidelity string) []byte {
	// An EvalRequest holds only strings, numbers and slices; it always
	// encodes.
	b, _ := json.Marshal(serve.EvalRequest{
		Design: d, Workload: workloadName, Fidelity: fidelity,
		Scale: cfg.Scale, WorkloadScale: cfg.WorkloadScale,
	})
	return b
}

// metricsOf decodes a response body's metrics.
func metricsOf(body []byte) (map[string]float64, error) {
	var res serve.EvalResult
	if err := json.Unmarshal(body, &res); err != nil {
		return nil, err
	}
	return res.Metrics, nil
}

// sameEval reports whether served metrics are bit-identical to ev's.
func sameEval(m map[string]float64, ev model.Evaluation) bool {
	return m["amat_ns"] == ev.AMATNanos && m["runtime_sec"] == ev.RuntimeSec &&
		m["dynamic_j"] == ev.DynamicJ && m["static_j"] == ev.StaticJ && m["total_j"] == ev.TotalJ &&
		m["edp"] == ev.EDP && m["norm_time"] == ev.NormTime &&
		m["norm_energy"] == ev.NormEnergy && m["norm_edp"] == ev.NormEDP
}

// drive is the load generator: a closed loop of `clients` goroutines, each
// taking the next request index, sending it, and waiting for the reply
// before taking another. It stops after n requests (n > 0) or once deadline
// has passed (non-zero).
func drive(n int, deadline time.Time, do func(client, i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				if !deadline.IsZero() && !time.Now().Before(deadline) {
					return
				}
				i := int(next.Add(1) - 1)
				if n > 0 && i >= n {
					return
				}
				do(c, i)
			}
		}(c)
	}
	wg.Wait()
}

// profileFor profiles one workload the way the serving evaluator does, for
// checking served answers against an independent computation.
func profileFor(cfg config, name string) (*exp.WorkloadProfile, error) {
	w, err := catalog.New(name, workload.Options{Scale: cfg.WorkloadScale})
	if err != nil {
		return nil, err
	}
	return exp.ProfileWorkload(w, cfg.Scale, exp.DefaultDilution)
}

// serveLog is the run log a serving workload's server writes: none in an
// untraced run, and in a traced run a discarded one, which turns on the
// program's per-request stage timing and event encoding.
func (r *run) serveLog() *obs.Logger {
	if !r.traced {
		return nil
	}
	return obs.NewLogger(io.Discard)
}

// boundaryCounter is the evaluator's process-wide count of profiled
// boundary references.
var boundaryCounter = obs.NewCounter("memsimd.boundary_refs")

// hotPoint is one warmed serve_hot design point.
type hotPoint struct {
	body []byte // the exact request
	key  string // expected-grid key
}

// hotState is serve_hot's set-up: the service and each point's warm-up
// response, which every later hit must repeat byte for byte.
type hotState struct {
	svc  *service
	warm [][]byte
}

// analyticReply is one serve_hot analytic answer kept for checking.
type analyticReply struct {
	workload string
	geo      geometry
	name     string
	body     []byte
}

// windowRate returns the median completion rate over the full seconds of a
// measured phase begun at start, or the overall rate when it lasted under a
// second.
func (r *run) windowRate(perSecond []atomic.Int64, total int, start, end time.Time) float64 {
	full := int(end.Sub(start) / time.Second)
	if full == 0 {
		return float64(total) / r.hostSeconds(start, end)
	}
	rates := make([]float64, min(full, len(perSecond)))
	for i := range rates {
		from := start.Add(time.Duration(i) * time.Second)
		rates[i] = float64(perSecond[i].Load()) / r.hostSeconds(from, from.Add(time.Second))
	}
	return median(rates)
}

// serveHot warms every grid point of cfg.Hot, then drives a closed loop of
// Zipf-skewed requests over the warmed points (answered from the LRU),
// with a small share of first-time analytic requests for distinct custom
// designs mixed in.
func serveHot(r *run) error {
	reg := design.DefaultRegistry()
	var points []hotPoint
	for _, w := range r.cfg.Hot {
		for _, g := range grid()[:r.cfg.GridPoints] {
			b, err := g.backend(reg, r.cfg.Scale, 0)
			if err != nil {
				return err
			}
			points = append(points, hotPoint{body: requestBody(r.cfg, g.spec(), w, ""), key: gridKey(w, b.Name)})
		}
	}
	var boundary uint64
	st, release, err := setUp(r, func() (hotState, func(), error) {
		b0 := boundaryCounter.Value()
		svc, err := startService("", r.serveLog())
		if err != nil {
			return hotState{}, nil, err
		}
		warm := make([][]byte, len(points))
		drive(len(points), time.Time{}, func(_, i int) {
			r.attempt(1)
			rep, err := svc.post(points[i].body)
			if !r.expect(rep, err, "miss") {
				return
			}
			m, err := metricsOf(rep.body)
			if want, ok := r.grid[points[i].key]; err != nil || (r.grid != nil && (!ok || !sameEval(m, want))) {
				r.fail("serve_hot warm %s: answer differs from the expected grid (%v)", points[i].key, err)
			}
			warm[i] = rep.body
		})
		boundary = boundaryCounter.Value() - b0
		return hotState{svc: svc, warm: warm}, svc.stop, nil
	})
	if err != nil {
		return err
	}
	defer release()
	svc := st.svc
	warmMetrics := make([]map[string]float64, len(st.warm))
	for i, b := range st.warm {
		warmMetrics[i], _ = metricsOf(b) // a bad body already counted as failed
	}
	r.digest = digestOf(warmMetrics)

	rankToPoint := permutation(draw(r.seed, streamPerm, 0), len(points))
	z := newZipf(len(points), hotZipfS)
	var (
		lat        = make([][]float64, clients)
		perSecond  = make([]atomic.Int64, int(r.seconds/time.Second)+2)
		hits, anas atomic.Int64
		sent       atomic.Int64
		mu         sync.Mutex
		answers    []analyticReply
	)
	replayed0 := svc.ev.ReplayedRefs()
	start := time.Now()
	drive(0, start.Add(r.seconds), func(c, i int) {
		r.attempt(1)
		sent.Add(1)
		idx := uint64(i)
		if unit(r.seed, streamMix, idx) < hotAnalyticShare {
			h := draw(r.seed, streamHotCustom, idx)
			a := analyticReply{
				workload: r.cfg.Hot[(h>>32)%uint64(len(r.cfg.Hot))],
				geo:      customGeometry(r.seed, streamHotCustom, idx),
				name:     "a" + strconv.Itoa(i),
			}
			rep, err := svc.post(requestBody(r.cfg, a.geo.spec(a.name), a.workload, serve.FidelityAnalytic))
			lat[c] = append(lat[c], rep.ms)
			if r.expect(rep, err, "analytic") {
				anas.Add(1)
				a.body = rep.body
				mu.Lock()
				answers = append(answers, a)
				mu.Unlock()
			}
		} else {
			p := rankToPoint[z.rank(r.seed, streamZipf, idx)]
			rep, err := svc.post(points[p].body)
			lat[c] = append(lat[c], rep.ms)
			if r.expect(rep, err, "hit") {
				if !bytes.Equal(rep.body, st.warm[p]) {
					r.fail("serve_hot %s: hit body differs from the warm-up answer", points[p].key)
				} else {
					hits.Add(1)
				}
			}
		}
		if s := int(time.Since(start) / time.Second); s < len(perSecond) {
			perSecond[s].Add(1)
		}
	})
	end := time.Now()
	replayed := svc.ev.ReplayedRefs() - replayed0

	// Outside the measured phase: every analytic answer must equal an
	// independent prediction from a profile built here.
	preds := map[string]*analytic.Predictor{}
	for _, w := range r.cfg.Hot {
		wp, err := profileFor(r.cfg, w)
		if err != nil {
			return err
		}
		if preds[w], err = wp.Predictor(); err != nil {
			return err
		}
		for _, a := range answers {
			if a.workload != w {
				continue
			}
			b, err := a.geo.backend(reg, a.name, wp.Footprint)
			if err != nil {
				return err
			}
			p, err := preds[w].Predict(b)
			m, merr := metricsOf(a.body)
			if err != nil || merr != nil || !sameEval(m, p.Eval) {
				r.fail("serve_hot analytic %s on %s: answer differs from the predictor (%v, %v)", a.name, w, err, merr)
			}
		}
	}

	total := int(sent.Load())
	r.set("designpts_per_s", r.windowRate(perSecond, total, start, end))
	r.setLatency(r.hostMillis(slices.Concat(lat...), start, end))
	r.set("sim.boundary_refs", float64(boundary))
	r.set("sim.replayed_refs", float64(replayed))
	r.set("analytic.predicts", float64(anas.Load()))
	r.set("serve.outcome.hit", float64(hits.Load()))
	r.set("serve.outcome.analytic", float64(anas.Load()))
	if total > 0 {
		r.set("serve.hit_ratio", float64(hits.Load())/float64(total))
	}
	return nil
}

// coldState is serve_cold_store's set-up: a service over a fresh store
// that has profiled and persisted every cfg.Store workload.
type coldState struct {
	svc *service
	dir string
}

// serveColdStore runs rounds over a durable store. Each round sends
// cfg.ColdRound first-time exact custom designs (each a miss: one unshared
// replay and a store write), restarts the service on the same directory,
// then sends the same requests again, each answered from disk (store_hit).
// Its latency percentiles are the misses'; the store hits, two orders of
// magnitude faster and as noisy as any sub-millisecond loopback round trip,
// count in the rate and are printed beside it.
func serveColdStore(r *run) error {
	var boundary uint64
	st, _, err := setUp(r, func() (coldState, func(), error) {
		dir, err := os.MkdirTemp(r.tmp, "store-")
		if err != nil {
			return coldState{}, nil, err
		}
		b0 := boundaryCounter.Value()
		svc, err := startService(dir, r.serveLog())
		if err != nil {
			return coldState{}, nil, err
		}
		// One at a time: profiling is the set-up's whole cost and its memory
		// peak, and overlapping two profilings would make both depend on
		// timing.
		for _, w := range r.cfg.Store {
			r.attempt(1)
			rep, err := svc.post(requestBody(r.cfg, serve.DesignSpec{Family: "reference"}, w, ""))
			r.expect(rep, err, "miss")
		}
		boundary = boundaryCounter.Value() - b0
		return coldState{svc: svc, dir: dir}, func() { svc.stop(); os.RemoveAll(dir) }, nil
	})
	if err != nil {
		return err
	}
	svc := st.svc
	defer func() {
		if svc != nil { // nil when a restart failed
			svc.stop()
		}
		os.RemoveAll(st.dir)
	}()

	k := r.cfg.ColdRound
	var (
		rates, missLat, readLat, restarts []float64
		firstBodies                       [][]byte
		outcomes                          = map[string]int{}
		last                              time.Duration
	)
	start := time.Now()
	for round := 0; round == 0 || r.another(start, last); round++ {
		reqs := make([][]byte, k)
		for j := range reqs {
			idx := uint64(round*k + j)
			g := customGeometry(r.seed, streamCold, idx)
			reqs[j] = requestBody(r.cfg, g.spec("c"+strconv.FormatUint(idx, 10)), r.cfg.Store[j%len(r.cfg.Store)], "")
		}
		bodies := make([][]byte, k)
		// send posts reqs[from:] through the closed loop, expecting outcome;
		// check sees each successful reply. It returns the round trips in
		// milliseconds.
		send := func(from int, outcome string, check func(j int, body []byte)) []float64 {
			var answered atomic.Int64
			ms := make([][]float64, clients)
			drive(k-from, time.Time{}, func(c, i int) {
				j := from + i
				r.attempt(1)
				rep, err := svc.post(reqs[j])
				ms[c] = append(ms[c], rep.ms)
				if r.expect(rep, err, outcome) {
					answered.Add(1)
					check(j, rep.body)
				}
			})
			outcomes[outcome] += int(answered.Load())
			return slices.Concat(ms...)
		}
		sameAsMiss := func(j int, body []byte) {
			if !bytes.Equal(body, bodies[j]) {
				r.fail("serve_cold_store round %d request %d: store_hit body differs from the miss body", round, j)
			}
		}

		t0 := time.Now()
		replayed0 := svc.ev.ReplayedRefs()
		ms := send(0, "miss", func(j int, body []byte) { bodies[j] = body })
		t1 := time.Now()
		missLat = append(missLat, r.hostMillis(ms, t0, t1)...)
		if round == 0 {
			r.set("sim.replayed_refs", float64(svc.ev.ReplayedRefs()-replayed0))
			firstBodies = bodies
		}

		// Restart: drain and close the service and its store, then reopen
		// both on the same directory, timed until the first request is
		// answered. A restarted memsimd is a new process, so the old
		// service's memory is returned before the clock starts, and only
		// the new process's part is timed.
		svc.stop()
		runtime.GC()
		debug.FreeOSMemory()
		tr := time.Now()
		if svc, err = startService(st.dir, r.serveLog()); err != nil {
			return err
		}
		r.attempt(1)
		rep, err := svc.post(reqs[0])
		restarts = append(restarts, r.hostSeconds(tr, time.Now()))
		ms = []float64{rep.ms}
		if r.expect(rep, err, "store_hit") {
			outcomes["store_hit"]++
			sameAsMiss(0, rep.body)
		}
		ms = append(ms, send(1, "store_hit", sameAsMiss)...)
		if n := svc.ev.ReplayedRefs(); n != 0 {
			r.fail("serve_cold_store round %d: %d references replayed after the restart", round, n)
		}
		end := time.Now()
		readLat = append(readLat, r.hostMillis(ms, tr, end)...)
		rates = append(rates, float64(2*k)/(r.hostSeconds(t0, t1)+r.hostSeconds(tr, end)))
		last = end.Sub(t0)
	}

	// Outside the measured phase: a sample of first-round answers for the
	// first store workload must equal an independent replay.
	wp, err := profileFor(r.cfg, r.cfg.Store[0])
	if err != nil {
		return err
	}
	reg := design.DefaultRegistry()
	metrics := make([]map[string]float64, len(firstBodies))
	for j, body := range firstBodies {
		metrics[j], _ = metricsOf(body) // a bad body already counted as failed
		if j%len(r.cfg.Store) != 0 || j/len(r.cfg.Store) >= 8 {
			continue
		}
		name := "c" + strconv.Itoa(j)
		b, err := customGeometry(r.seed, streamCold, uint64(j)).backend(reg, name, wp.Footprint)
		if err != nil {
			return err
		}
		r.attempt(1)
		ev, err := wp.EvaluateCtx(context.Background(), b)
		if err != nil || !sameEval(metrics[j], ev) {
			r.fail("serve_cold_store %s: answer differs from an independent replay (%v)", name, err)
		}
	}
	r.digest = digestOf(metrics)

	slices.Sort(readLat)
	fmt.Printf("serve_cold_store rounds=%d restart_s_median=%.4f store_hit_p50_ms=%.4f store_hit_p99_ms=%.4f n=%d\n",
		len(restarts), median(restarts), percentile(readLat, 50), percentile(readLat, 99), len(readLat))
	r.set("designpts_per_s", median(rates))
	r.setLatency(missLat)
	r.set("sim.boundary_refs", float64(boundary))
	for _, o := range []string{"hit", "miss", "store_hit"} {
		r.set("serve.outcome."+o, float64(outcomes[o]))
	}
	if total := outcomes["hit"] + outcomes["miss"] + outcomes["store_hit"]; total > 0 {
		r.set("serve.hit_ratio", float64(outcomes["hit"]+outcomes["store_hit"])/float64(total))
	}
	return nil
}
