package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"time"

	"hybridmem/internal/analytic"
	"hybridmem/internal/core"
	"hybridmem/internal/design"
	"hybridmem/internal/exp"
	"hybridmem/internal/model"
	"hybridmem/internal/obs"
	"hybridmem/internal/reuse"
	"hybridmem/internal/serve"
	"hybridmem/internal/store"
	"hybridmem/internal/trace"
	"hybridmem/internal/workload"
	"hybridmem/internal/workload/catalog"
)

// The layer ladder times every layer of both evaluation paths in isolation,
// by calling each layer's public entry point from the benchmark, on one
// workload at the run's scales with designs drawn from the run's seed. The
// traced run of every workload ends with it, so every per-layer time is
// measured in every workload's traced run, and the fixed sizes below make
// the values comparable from run to run.
const (
	// ladderWorkload is in every workload's traffic.
	ladderWorkload = "CG"
	// ladderPerFamily designs of each family are replayed.
	ladderPerFamily = 4
	// ladderPredicts custom designs are predicted analytically.
	ladderPredicts = 2000
	// ladderDocs documents are written to and read from the store.
	ladderDocs = 64
	// ladderHits cached requests go through each serving layer.
	ladderHits = 256
)

// ladderFamilies are the design families the replay rung splits by, with
// their metric-name suffixes.
var ladderFamilies = []struct{ family, metric string }{
	{"NMM", "nmm"}, {"4LC", "4lc"}, {"4LCNVM", "4lcnvm"}, {"custom", "custom"},
}

// ladderDesign is one replayed design and its serving-API form.
type ladderDesign struct {
	metric string
	b      design.Backend
	spec   serve.DesignSpec
}

// ladderDesigns draws n designs of each family: grid points for the three
// paper families and custom geometries for the fourth.
func ladderDesigns(seed, scale, footprint uint64, n int) ([]ladderDesign, error) {
	reg := design.DefaultRegistry()
	var out []ladderDesign
	for f, fam := range ladderFamilies {
		for i := 0; i < n; i++ {
			h := draw(seed, streamLadder, uint64(f*1000+i))
			var d ladderDesign
			if fam.family == "custom" {
				name := "l" + strconv.Itoa(i)
				g := customGeometry(seed, streamLadder, uint64(f*1000+i))
				b, err := g.backend(reg, name, footprint)
				if err != nil {
					return nil, err
				}
				d = ladderDesign{metric: fam.metric, b: b, spec: g.spec(name)}
			} else {
				var pts []gridPoint
				for _, g := range grid() {
					if g.Family == fam.family {
						pts = append(pts, g)
					}
				}
				g := pts[h%uint64(len(pts))]
				b, err := g.backend(reg, scale, footprint)
				if err != nil {
					return nil, err
				}
				d = ladderDesign{metric: fam.metric, b: b, spec: g.spec()}
			}
			out = append(out, d)
		}
	}
	return out, nil
}

// ladder runs every rung and records the per-layer metrics, with every
// time at the reference host speed.
func ladder(r *run) error {
	start := time.Now()
	if err := ladderRungs(r); err != nil {
		return err
	}
	s := r.speed.scale(start, time.Now())
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, d := range perLayer {
		if d.Unit == "s" {
			r.values[d.Name] *= s
		}
	}
	return nil
}

// ladderRungs runs every rung and records their raw per-layer metrics.
func ladderRungs(r *run) error {
	pt, wp, err := profileLayers(r.cfg, ladderWorkload)
	if err != nil {
		return err
	}
	r.set("workload.emit_s", pt.emit)
	r.set("core.prefix_s", pt.prefix)
	r.set("trace.encode_s", pt.encode)
	r.set("reuse.sketch_s", pt.sketch)
	r.set("exp.reference_s", pt.reference)
	r.set("exp.profile_s", pt.profile)

	designs, err := ladderDesigns(r.seed, r.cfg.Scale, wp.Footprint, ladderPerFamily)
	if err != nil {
		return err
	}
	rt, evals, err := replayLayers(wp, designs)
	if err != nil {
		return err
	}
	r.attempt(len(designs))
	for _, m := range rt.mismatched {
		r.fail("ladder %s: RunJobs result differs from the isolated replay", m)
	}
	r.set("trace.decode_s", rt.decode)
	r.set("trace.decodes_per_ref", rt.decodesPerRef)
	for _, fam := range ladderFamilies {
		r.set("core.access_batch_s."+fam.metric, rt.access[fam.metric])
	}
	r.set("model.evaluate_s", rt.evaluate)
	r.set("exp.runjobs_s", rt.runJobs)
	r.set("exp.fanout_wait_s", rt.runJobs*workers-rt.parts())

	if err := analyticLayers(r, wp, designs, evals); err != nil {
		return err
	}
	if err := storeLayers(r, wp, designs[0].b, evals); err != nil {
		return err
	}
	return serveLayers(r, designs)
}

// profileTimes are the profiling rungs, in seconds.
type profileTimes struct {
	// emit runs the workload kernel into a counting sink; prefix is the
	// kernel through the SRAM prefix and the recording terminal, minus
	// emit; encode re-encodes the recorded boundary stream; sketch and
	// reference are the reuse sketch and the reference-system replay over
	// it; profile is the whole exp.ProfileWorkloadOpts call.
	emit, prefix, encode, sketch, reference, profile float64
}

// newWorkload builds one catalog workload at cfg's footprint scale.
func newWorkload(cfg config, name string) (workload.Workload, error) {
	return catalog.New(name, workload.Options{Scale: cfg.WorkloadScale})
}

// decodeAll decodes every block of p into its own buffer; it returns the
// blocks and the seconds spent inside DecodeBlock.
func decodeAll(p *trace.Packed) ([][]trace.Ref, float64) {
	blocks := make([][]trace.Ref, p.Blocks())
	for i := range blocks {
		blocks[i] = make([]trace.Ref, 0, trace.BlockRefs)
	}
	t0 := time.Now()
	for i := range blocks {
		blocks[i] = p.DecodeBlock(i, blocks[i])
	}
	return blocks, time.Since(t0).Seconds()
}

// profileLayers times the profiling pipeline's rungs on one workload and
// returns the profile exp.ProfileWorkloadOpts built.
func profileLayers(cfg config, name string) (profileTimes, *exp.WorkloadProfile, error) {
	var pt profileTimes
	w, err := newWorkload(cfg, name)
	if err != nil {
		return pt, nil, err
	}
	reg := design.DefaultRegistry()

	t0 := time.Now()
	w.Run(&trace.Counter{})
	pt.emit = time.Since(t0).Seconds()

	prefix, err := reg.BuildPrefix(cfg.Scale)
	if err != nil {
		return pt, nil, err
	}
	rec := core.NewRecordingMemory(design.CacheLine)
	h, err := core.NewHierarchy(prefix, rec)
	if err != nil {
		return pt, nil, err
	}
	t0 = time.Now()
	w.Run(h)
	h.Flush()
	pt.prefix = time.Since(t0).Seconds() - pt.emit
	boundary := rec.Stream()

	blocks, _ := decodeAll(boundary)
	var packed trace.Packed
	t0 = time.Now()
	for _, b := range blocks {
		packed.AccessBatch(b)
	}
	pt.encode = time.Since(t0).Seconds()

	sketcher, err := reuse.NewSketcher()
	if err != nil {
		return pt, nil, err
	}
	t0 = time.Now()
	for _, b := range blocks {
		sketcher.AccessBatch(b)
	}
	sketcher.Sketch()
	pt.sketch = time.Since(t0).Seconds()

	t0 = time.Now()
	ref, err := reg.Reference(w.Footprint()).Build()
	if err != nil {
		return pt, nil, err
	}
	ref.Replay(boundary)
	ref.Snapshot()
	pt.reference = time.Since(t0).Seconds()

	t0 = time.Now()
	wp, err := exp.ProfileWorkloadOpts(context.Background(), w, exp.ProfileOptions{
		Scale: cfg.Scale, Dilution: exp.DefaultDilution,
	})
	pt.profile = time.Since(t0).Seconds()
	if err != nil {
		return pt, nil, err
	}
	if packed.Len() != boundary.Len() || wp.Boundary.Len() != boundary.Len() {
		return pt, nil, fmt.Errorf("ladder: %s boundary stream not reproducible (%d, %d, %d refs)",
			name, boundary.Len(), packed.Len(), wp.Boundary.Len())
	}
	return pt, wp, nil
}

// replayTimes are the replay rungs, in seconds.
type replayTimes struct {
	// decode is one full decode of the boundary stream; access, per
	// family, builds each design and replays every decoded block into it
	// (flush and snapshot included); evaluate applies the model to each
	// snapshot; runJobs is one RunJobs call over the same designs.
	decode   float64
	access   map[string]float64
	evaluate float64
	runJobs  float64
	// chunks is how many fan-out chunks RunJobs split the designs into,
	// each of which decodes the stream once; decodesPerRef is the blocks
	// RunJobs decoded per block its designs replayed.
	chunks        int
	decodesPerRef float64
	// mismatched names designs whose RunJobs result differs from the
	// isolated replay's.
	mismatched []string
}

// parts is the busy time RunJobs' pieces account for: one decode per chunk
// plus every design's replay and model evaluation.
func (rt replayTimes) parts() float64 {
	var access float64
	for _, a := range rt.access {
		access += a
	}
	return rt.decode*float64(rt.chunks) + access + rt.evaluate
}

// replayLayers replays every design through the isolated rungs, then all
// of them through one RunJobs call with the fixed worker bound, and returns
// the isolated evaluations.
func replayLayers(wp *exp.WorkloadProfile, designs []ladderDesign) (replayTimes, []model.Evaluation, error) {
	rt := replayTimes{access: map[string]float64{}}
	blocks, decode := decodeAll(wp.Boundary)
	rt.decode = decode
	evals := make([]model.Evaluation, len(designs))
	for i, d := range designs {
		t0 := time.Now()
		built, err := d.b.Build()
		if err != nil {
			return rt, nil, err
		}
		for _, b := range blocks {
			built.AccessBatch(b)
		}
		built.Flush()
		snap := built.Snapshot()
		rt.access[d.metric] += time.Since(t0).Seconds()

		t0 = time.Now()
		evals[i], err = model.Evaluate(d.b.Name, wp.Name, wp.ReferenceProfile(), wp.RefTime,
			model.Profile{Levels: append(slices.Clone(wp.Prefix), snap...), TotalRefs: wp.TotalRefs})
		rt.evaluate += time.Since(t0).Seconds()
		if err != nil {
			return rt, nil, err
		}
	}

	jobs := make([]exp.Job, len(designs))
	for i, d := range designs {
		jobs[i] = exp.Job{WP: wp, B: d.b}
	}
	blocks0 := obs.DecodedBlocks()
	t0 := time.Now()
	got, err := exp.RunJobs(context.Background(), jobs, workers)
	rt.runJobs = time.Since(t0).Seconds()
	if err != nil {
		return rt, nil, err
	}
	rt.chunks = (len(jobs) + workers - 1) / workers
	rt.decodesPerRef = float64(obs.DecodedBlocks()-blocks0) / float64(len(jobs)*wp.Boundary.Blocks())
	for i := range got {
		if got[i] != evals[i] {
			rt.mismatched = append(rt.mismatched, designs[i].b.Name)
		}
	}
	return rt, evals, nil
}

// analyticLayers times ladderPredicts analytic predictions of seeded custom
// designs, and measures the predictor's error on the replayed designs.
func analyticLayers(r *run, wp *exp.WorkloadProfile, designs []ladderDesign, evals []model.Evaluation) error {
	pred, err := wp.Predictor()
	if err != nil {
		return err
	}
	var sum float64
	beyond := 0
	for i, d := range designs {
		p, err := pred.Predict(d.b)
		if err != nil {
			return err
		}
		e := relErr(p.Eval.AMATNanos, evals[i].AMATNanos)
		sum += e
		if e > analytic.AMATTolerance || relErr(p.Eval.EDP, evals[i].EDP) > analytic.EDPTolerance {
			beyond++
		}
	}
	r.set("analytic.relerr_amat", sum/float64(len(designs)))
	r.set("analytic.out_of_envelope", float64(beyond))

	reg := design.DefaultRegistry()
	backends := make([]design.Backend, ladderPredicts)
	for i := range backends {
		g := customGeometry(r.seed, streamLadder, uint64(100_000+i))
		if backends[i], err = g.backend(reg, "ladder", wp.Footprint); err != nil {
			return err
		}
	}
	r.attempt(len(backends))
	t0 := time.Now()
	for _, b := range backends {
		if _, err := pred.Predict(b); err != nil {
			r.fail("ladder predict %s: %v", b.Name, err)
		}
	}
	r.set("analytic.predict_s", time.Since(t0).Seconds())
	return nil
}

// dirBytes sums the sizes of the files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}

// storeLayers times the durable store: persisting the profile's stream and
// manifest and ladderDocs result documents, reopening the directory,
// reading everything back, and restoring the profile, which must then
// evaluate probe exactly as the original did (evals[0]).
func storeLayers(r *run, wp *exp.WorkloadProfile, probe design.Backend, evals []model.Evaluation) error {
	dir, err := os.MkdirTemp(r.tmp, "ladder-store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return err
	}
	meta, err := json.Marshal(wp.Manifest())
	if err != nil {
		st.Close()
		return err
	}
	const key = "profile:ladder"
	t0 := time.Now()
	err = st.PutStream(key, wp.Boundary, meta)
	r.set("store.put_stream_s", time.Since(t0).Seconds())
	if err != nil {
		st.Close()
		return err
	}
	docs := make([][]byte, ladderDocs)
	var put float64
	for i := range docs {
		if docs[i], err = json.Marshal(evals[i%len(evals)]); err != nil {
			st.Close()
			return err
		}
		t0 = time.Now()
		err = st.PutDoc("doc-"+strconv.Itoa(i), docs[i])
		put += time.Since(t0).Seconds()
		if err != nil {
			st.Close()
			return err
		}
	}
	r.set("store.put_doc_s", put)
	if err := st.Close(); err != nil {
		return err
	}

	t0 = time.Now()
	st, err = store.Open(dir, store.Options{})
	r.set("store.open_s", time.Since(t0).Seconds())
	if err != nil {
		return err
	}
	defer st.Close()
	t0 = time.Now()
	packed, meta, ok, err := st.GetStream(key)
	r.set("store.get_stream_s", time.Since(t0).Seconds())
	if err != nil || !ok {
		return fmt.Errorf("ladder: stream not read back (ok=%v): %v", ok, err)
	}
	t0 = time.Now()
	var m exp.ProfileManifest
	err = json.Unmarshal(meta, &m)
	var restored *exp.WorkloadProfile
	if err == nil {
		restored, err = exp.RestoreProfile(&m, packed, nil)
	}
	r.set("exp.restore_profile_s", time.Since(t0).Seconds())
	if err != nil {
		return err
	}
	r.attempt(1)
	if ev, err := restored.EvaluateCtx(context.Background(), probe); err != nil || ev != evals[0] {
		r.fail("ladder: restored profile evaluates %s differently (%v)", probe.Name, err)
	}

	var get float64
	r.attempt(len(docs))
	for i, want := range docs {
		t0 = time.Now()
		got, ok, err := st.GetDoc("doc-" + strconv.Itoa(i))
		get += time.Since(t0).Seconds()
		if err != nil || !ok || !bytes.Equal(got, want) {
			r.fail("ladder: document %d not read back (ok=%v): %v", i, ok, err)
		}
	}
	r.set("store.get_doc_s", get)
	n, err := dirBytes(dir)
	r.set("store.bytes", float64(n))
	return err
}

// serveLayers times the serving path on a service over a fresh store: one
// exact miss and one analytic request per family, then ladderHits cached
// requests through request parsing alone, through the handler with a
// response recorder, and over loopback HTTP; the per-stage times are the
// program's own http_request breakdowns, summed. Last, it restarts the
// service on the same store and times until the first request is
// answered from disk.
func serveLayers(r *run, designs []ladderDesign) error {
	dir, err := os.MkdirTemp(r.tmp, "ladder-serve-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	log := newEventLog()
	svc, err := startService(dir, obs.NewLogger(log))
	if err != nil {
		return err
	}
	stopped := false
	defer func() {
		if !stopped {
			svc.stop()
		}
	}()

	var cached [][]byte
	var firstMiss []byte
	for i := 0; i < len(designs); i += ladderPerFamily {
		d := designs[i]
		body := requestBody(r.cfg, d.spec, ladderWorkload, "")
		r.attempt(1)
		rep, err := svc.post(body)
		if r.expect(rep, err, "miss") && firstMiss == nil {
			firstMiss = rep.body
		}
		cached = append(cached, body)

		g := customGeometry(r.seed, streamLadder, uint64(200_000+i))
		body = requestBody(r.cfg, g.spec("la"+strconv.Itoa(i)), ladderWorkload, serve.FidelityAnalytic)
		r.attempt(1)
		rep, err = svc.post(body)
		r.expect(rep, err, "analytic")
		cached = append(cached, body)
	}

	var client float64
	r.attempt(ladderHits)
	for i := 0; i < ladderHits; i++ {
		rep, err := svc.post(cached[i%len(cached)])
		client += rep.ms / 1000
		r.expect(rep, err, "hit")
	}

	var normalize float64
	r.attempt(ladderHits)
	for i := 0; i < ladderHits; i++ {
		t0 := time.Now()
		var req serve.EvalRequest
		dec := json.NewDecoder(bytes.NewReader(cached[i%len(cached)]))
		dec.DisallowUnknownFields()
		err := dec.Decode(&req)
		if err == nil {
			if apiErr := req.NormalizeWith(nil); apiErr != nil {
				err = apiErr
			} else {
				req.Key()
			}
		}
		normalize += time.Since(t0).Seconds()
		if err != nil {
			r.fail("ladder normalize: %v", err)
		}
	}

	h := svc.srv.Handler()
	var handler float64
	r.attempt(ladderHits)
	for i := 0; i < ladderHits; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/evaluate", bytes.NewReader(cached[i%len(cached)]))
		rec := httptest.NewRecorder()
		t0 := time.Now()
		h.ServeHTTP(rec, req)
		handler += time.Since(t0).Seconds()
		r.expect(reply{status: rec.Code, outcome: rec.Header().Get("X-Memsimd-Cache"), body: rec.Body.Bytes()}, nil, "hit")
	}
	r.set("serve.normalize_s", normalize)
	r.set("serve.handler_s", handler)
	r.set("net.wire_s", client-handler)
	for _, name := range serveStages {
		r.set("serve.stage."+name+"_s", log.stageSeconds(name))
	}

	t0 := time.Now()
	svc.stop()
	stopped = true
	svc2, err := startService(dir, nil)
	if err != nil {
		return err
	}
	defer svc2.stop()
	r.attempt(1)
	rep, err := svc2.post(cached[0])
	r.set("serve.restart_s", time.Since(t0).Seconds())
	if r.expect(rep, err, "store_hit") && !bytes.Equal(rep.body, firstMiss) {
		r.fail("ladder: store_hit body after restart differs from the miss body")
	}
	return nil
}
