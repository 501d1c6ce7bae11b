package serve

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"strconv"
	"sync/atomic"
	"time"

	"hybridmem/internal/analytic"
	"hybridmem/internal/design"
	"hybridmem/internal/exp"
	"hybridmem/internal/fault"
	"hybridmem/internal/lru"
	"hybridmem/internal/model"
	"hybridmem/internal/obs"
	"hybridmem/internal/store"
	"hybridmem/internal/tech"
	"hybridmem/internal/workload"
	"hybridmem/internal/workload/catalog"
)

// EvalResult is the outcome of one design-point evaluation — the value the
// server caches and returns. Metrics always carries the full metric set;
// the handler filters it down to the request's metric selection at
// response time, so differently filtered requests share one cache entry.
type EvalResult struct {
	// Design is the resolved design-point label (e.g. "4LC/EH4/eDRAM").
	Design string `json:"design"`
	// Workload names the evaluated workload.
	Workload string `json:"workload"`
	// Scale and WorkloadScale echo the resolved co-scaling divisors.
	Scale         uint64 `json:"scale"`
	WorkloadScale uint64 `json:"workload_scale"`
	// Key is the canonical cache key this result is stored under.
	Key string `json:"key"`
	// Metrics maps metric names (MetricNames) to values.
	Metrics map[string]float64 `json:"metrics"`
	// ReplayRefs is how many boundary references the evaluation replayed:
	// zero when answered from the cached reference evaluation, at
	// analytic fidelity, or from another design's replay of the same
	// cache geometry (a shared answer; see Evaluator).
	ReplayRefs uint64 `json:"replay_refs"`
	// EvalMS is the wall-clock cost of computing this result on its
	// cache miss; every later hit reports it as replay time saved.
	EvalMS float64 `json:"eval_ms"`

	// replay says how an exact evaluation got its back-end statistics:
	// replayOwn or replayShared ("" when nothing was replayed). The
	// server logs it on the miss's http_request event; it is not part of
	// the response.
	replay string
}

// EvalResult.replay values.
const (
	replayOwn    = "own"
	replayShared = "shared"
)

// DefaultMaxProfiles bounds the evaluator's workload-profile cache. A
// profile holds a recorded boundary stream (tens of MB at paper scale), so
// the bound is deliberately small; profiles evict LRU-first.
const DefaultMaxProfiles = 16

// Evaluator turns normalized evaluation requests into results on top of
// the exp harness. It caches workload profiles — the expensive full-stream
// prefix simulation — across requests, deduplicates concurrent profiling
// of the same workload, and counts boundary replays so callers can observe
// exactly how much simulation work each request triggered.
//
// Below the profiles sits the replay-snapshot tier, an exp.ClassCache: an
// exact design with a replay key is answered from the back-end snapshot of
// its replay class — (profile, replay key) — relabelled under its own
// technologies, so a technology variant of a geometry already replayed
// costs microseconds, not a replay. Concurrent misses of one class wait on
// one replay. Designs without a replay key (fault injection, row-buffer and
// partitioned terminals) replay alone.
//
// Cancellation: the boundary replay honors ctx (see exp.EvaluateCtx). The
// profiling pass itself runs a workload kernel to completion and is not
// interruptible; its cost is paid at most once per (workload, parameters)
// tuple and is shared by all waiters.
type Evaluator struct {
	// Log receives profiling and design-point events (may be nil).
	Log *obs.Logger

	// profiles caches workload profiles by profileKey, bounded LRU-first;
	// concurrent misses of one key share one restore or profiling pass.
	profiles *lru.Cache[*exp.WorkloadProfile]
	// snaps is the replay-snapshot tier, keyed by the cached profile and
	// the replay key.
	snaps *exp.ClassCache

	// guard, when set, is the durable tier behind the in-memory profile
	// cache: a profile evicted (or belonging to a previous process) is
	// restored from its persisted manifest + boundary stream with zero
	// replay instead of being re-profiled. All access goes through the
	// wounded-store self-healing StoreGuard. See SetStoreGuard.
	guard *StoreGuard

	replays      atomic.Uint64
	replayedRefs atomic.Uint64
	profilesRun  atomic.Uint64

	// Process-global counters of the boundary-store footprint across
	// every profile this process has recorded: packed (resident) bytes
	// against the raw []trace.Ref bytes the packed encoding replaced.
	boundaryRefs        *obs.Counter
	boundaryPackedBytes *obs.Counter
	boundaryRawBytes    *obs.Counter

	// Cumulative device-fault outcomes across every fault-injected
	// evaluation this process has run.
	faultCorrected   *obs.Counter
	faultUncorrected *obs.Counter
	faultRetired     *obs.Counter
	faultRemapped    *obs.Counter

	// Process-wide replay work, exported on /metrics: dividing the refs
	// counter's rate by wall time gives the server's replay refs/s.
	replaysTotal    *obs.Counter
	replayRefsTotal *obs.Counter

	// Durable profile-tier traffic: hits are profiles restored from disk
	// with zero replay; misses fall through to a fresh profiling pass.
	profileStoreHits   *obs.Counter
	profileStoreMisses *obs.Counter
	profileStoreErrors *obs.Counter
}

// NewEvaluator builds an evaluator bounded to maxProfiles cached workload
// profiles (<=0 selects DefaultMaxProfiles).
func NewEvaluator(maxProfiles int, log *obs.Logger) *Evaluator {
	if maxProfiles <= 0 {
		maxProfiles = DefaultMaxProfiles
	}
	return &Evaluator{
		Log:      log,
		profiles: lru.New[*exp.WorkloadProfile](maxProfiles),
		snaps:    exp.NewClassCache(),

		boundaryRefs:        obs.NewCounter("memsimd.boundary_refs"),
		boundaryPackedBytes: obs.NewCounter("memsimd.boundary_packed_bytes"),
		boundaryRawBytes:    obs.NewCounter("memsimd.boundary_raw_bytes"),

		faultCorrected:   obs.NewCounter("memsimd.fault_corrected_total"),
		faultUncorrected: obs.NewCounter("memsimd.fault_uncorrected_total"),
		faultRetired:     obs.NewCounter("memsimd.fault_retired_pages_total"),
		faultRemapped:    obs.NewCounter("memsimd.fault_remapped_total"),

		replaysTotal:    obs.NewCounter("memsimd.replays_total"),
		replayRefsTotal: obs.NewCounter("memsimd.replay_refs_total"),

		profileStoreHits:   obs.NewCounter("memsimd.profile_store_hits"),
		profileStoreMisses: obs.NewCounter("memsimd.profile_store_misses"),
		profileStoreErrors: obs.NewCounter("memsimd.profile_store_errors"),
	}
}

// SetStoreGuard attaches an on-disk store (see internal/store), supervised
// by g, as the durable tier behind the in-memory profile cache. Profiles
// already persisted are restored — manifest plus content-addressed
// boundary stream, zero replay — instead of re-profiled, and every freshly
// profiled workload is written through for the next process. Call before
// serving traffic; the evaluator does not close the store. g is typically
// the same guard the Server routes result documents through, so a wound
// observed on either path quarantines one shared instance and a single
// background reopen heals both.
func (e *Evaluator) SetStoreGuard(g *StoreGuard) { e.guard = g }

// Replays returns how many boundary replays this evaluator has performed —
// the instrumentation behind cache-effectiveness assertions: a request
// answered from the result cache leaves this counter untouched.
func (e *Evaluator) Replays() uint64 { return e.replays.Load() }

// ReplayedRefs returns the cumulative number of boundary references
// replayed across all evaluations.
func (e *Evaluator) ReplayedRefs() uint64 { return e.replayedRefs.Load() }

// ProfilesRun returns how many workload profiling passes have executed.
func (e *Evaluator) ProfilesRun() uint64 { return e.profilesRun.Load() }

// profileKey canonicalizes the profile-cache key: every request field that
// changes the profiled stream, plus a hash of the four catalog entries that
// shape the profile — the SRAM prefix's L1, L2 and L3 and the reference
// DRAM — taken from the request's effective registry. Every other
// technology enters only a design's model or relabels a replay snapshot,
// so editing or overriding one (an LLC's or NVM's parameters, say) keeps
// the profile, and with it the snapshot tier, that the stock catalog built.
func profileKey(r *EvalRequest) string {
	reg := r.registry()
	prefix := reg.PrefixSpecs(1) // technologies only; the sizes follow Scale
	b := make([]byte, 0, 256)
	for _, t := range [...]tech.Tech{prefix[0].Tech, prefix[1].Tech, prefix[2].Tech, reg.DRAM()} {
		b = append(append(b, t.Name...), 0)
		for _, v := range [...]float64{t.ReadNS, t.WriteNS, t.ReadPJPerBit, t.WritePJPerBit, t.StaticWPerGB, t.StaticWFixed} {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		b = strconv.AppendBool(b, t.NonVolatile)
	}
	return fmt.Sprintf("%s|s%d|w%d|i%d|d%d|t%x", r.Workload, r.Scale, r.WorkloadScale, r.Iters, r.Dilution, sha256.Sum256(b))
}

// profile returns the cached profile for the request's workload tuple,
// restoring or profiling it once (deduplicated across concurrent requests)
// on a miss. The "profile" stage times that restore or profiling pass; a
// wait on another request's pass is its singleflight_wait.
func (e *Evaluator) profile(ctx context.Context, r *EvalRequest) (*exp.WorkloadProfile, error) {
	key := profileKey(r)
	wp, _, err := e.profiles.Do(ctx, key, func() (*exp.WorkloadProfile, error) {
		defer obs.TimeStage(ctx, "profile")()
		if wp, ok := e.restoreProfile(key); ok {
			return wp, nil
		}
		w, err := catalog.New(r.Workload, workload.Options{Scale: r.WorkloadScale, Iters: r.Iters})
		if err != nil {
			return nil, err
		}
		wp, err := exp.ProfileWorkloadOpts(ctx, w, exp.ProfileOptions{
			Scale: r.Scale, Dilution: r.Dilution, Log: e.Log,
			Catalog: r.EffectiveCatalog(),
		})
		if err != nil {
			return nil, err
		}
		e.profilesRun.Add(1)
		e.boundaryRefs.Add(uint64(wp.Boundary.Len()))
		e.boundaryPackedBytes.Add(wp.Boundary.PackedBytes())
		e.boundaryRawBytes.Add(wp.Boundary.RawBytes())
		e.persistProfile(key, wp)
		return wp, nil
	})
	return wp, err
}

// profileStorePrefix namespaces persisted profiles within the store's
// stream keyspace; the suffix is the profileKey tuple.
const profileStorePrefix = "profile:"

// restoreProfile attempts to rebuild the profile for key from the durable
// tier. Any failure — absent, unreadable, or schema-incompatible — is a
// miss: the caller falls through to a fresh profiling pass, and the
// write-through afterwards repairs the stored copy.
func (e *Evaluator) restoreProfile(key string) (*exp.WorkloadProfile, bool) {
	if e.guard == nil {
		return nil, false
	}
	start := time.Now()
	boundary, meta, ok, err := e.guard.GetStream(profileStorePrefix + key)
	if err == nil && !ok {
		e.profileStoreMisses.Add(1)
		return nil, false
	}
	var wp *exp.WorkloadProfile
	if err == nil {
		var m exp.ProfileManifest
		if err = json.Unmarshal(meta, &m); err == nil {
			wp, err = exp.RestoreProfile(&m, boundary, e.Log)
		}
	}
	if err != nil {
		e.profileStoreErrors.Add(1)
		if e.Log != nil {
			e.Log.Warn("profile_restore_failed", obs.Fields{"profile": key, "err": err.Error()})
		}
		return nil, false
	}
	e.profileStoreHits.Add(1)
	if e.Log != nil {
		e.Log.Event("profile_restore", obs.Fields{
			"profile":       key,
			"workload":      wp.Name,
			"boundary_refs": wp.Boundary.Len(),
			"replayed_refs": 0, // the restore's whole point: zero replay
			"wall_ms":       float64(time.Since(start)) / float64(time.Millisecond),
		})
	}
	return wp, true
}

// ProfileRequest returns the normalized reference-design request for the
// workload tuple (workload at co-scaling divisor scale, default iterations
// and dilution, builtin catalog): evaluating it profiles the workload and
// writes the profile record through, exactly as memsimd -warm does.
func ProfileRequest(workload string, scale uint64) (*EvalRequest, error) {
	r := &EvalRequest{Design: DesignSpec{Family: design.FamilyReference}, Workload: workload, Scale: scale}
	if apiErr := r.Normalize(); apiErr != nil {
		return nil, apiErr
	}
	return r, nil
}

// OpenStoredProfile restores the ProfileRequest tuple's profile record —
// the record a -store run of memsimd or tracecat -capture writes — from the
// existing store at dir. It never profiles, never creates a store, and
// writes no record. The profile's boundary stream decodes out of the
// store's mapped segments, so close the returned store only after the
// profile's last use.
func OpenStoredProfile(dir, workload string, scale uint64) (*exp.WorkloadProfile, *store.Store, error) {
	r, err := ProfileRequest(workload, scale)
	if err != nil {
		return nil, nil, err
	}
	if _, err := os.Stat(dir); err != nil {
		return nil, nil, err
	}
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return nil, nil, err
	}
	ev := NewEvaluator(1, nil)
	ev.SetStoreGuard(NewStoreGuard(st, nil, fault.RetryPolicy{}, nil))
	wp, ok := ev.restoreProfile(profileKey(r))
	if !ok {
		st.Close()
		return nil, nil, fmt.Errorf("serve: store %s holds no readable profile of %s at scale %d", dir, r.Workload, r.Scale)
	}
	return wp, st, nil
}

// persistProfile writes a freshly profiled workload through to the durable
// tier (no-op without one). Persistence failures are logged and dropped:
// the in-memory profile still serves this process, only the next restart
// pays the re-profiling cost.
func (e *Evaluator) persistProfile(key string, wp *exp.WorkloadProfile) {
	if e.guard == nil {
		return
	}
	start := time.Now()
	meta, err := json.Marshal(wp.Manifest())
	if err == nil {
		err = e.guard.PutStream(profileStorePrefix+key, wp.Boundary, meta)
	}
	if err != nil {
		e.profileStoreErrors.Add(1)
		if e.Log != nil {
			e.Log.Warn("profile_persist_failed", obs.Fields{"profile": key, "err": err.Error()})
		}
		return
	}
	if e.Log != nil {
		e.Log.Event("profile_persist", obs.Fields{
			"profile":       key,
			"workload":      wp.Name,
			"boundary_refs": wp.Boundary.Len(),
			"packed_bytes":  wp.Boundary.PackedBytes(),
			"wall_ms":       float64(time.Since(start)) / float64(time.Millisecond),
		})
	}
}

// evaluateAnalytic answers a design point from the profile's reuse sketch
// (no replay), mapping the predictor's typed refusal onto an API error: a
// design outside the analytic model is CodeAnalyticUnsupported, a
// client-correctable 400 and no evidence against the design's health.
func (e *Evaluator) evaluateAnalytic(wp *exp.WorkloadProfile, b design.Backend) (model.Evaluation, error) {
	pred, err := wp.Predictor()
	if err != nil {
		return model.Evaluation{}, err
	}
	p, err := pred.Predict(b)
	if err != nil {
		var ue *analytic.UnsupportedError
		if errors.As(err, &ue) {
			return model.Evaluation{}, errField(CodeAnalyticUnsupported, "design", ue.Error())
		}
		return model.Evaluation{}, err
	}
	return p.Eval, nil
}

// Evaluate computes the result for a normalized request: profile (or reuse
// the profiled) workload, replay its boundary stream through the requested
// back end, and apply the paper's models. The returned metrics are exactly
// what exp/paperrepro would compute for the same configuration. Requests at
// analytic fidelity skip the replay and answer from the workload's reuse
// sketch (ReplayRefs 0).
func (e *Evaluator) Evaluate(ctx context.Context, r *EvalRequest) (*EvalResult, error) {
	start := time.Now()
	wp, err := e.profile(ctx, r)
	if err != nil {
		return nil, err
	}
	b, err := r.registry().Backend(r.Design, r.Scale, wp.Footprint)
	if err != nil {
		return nil, err
	}
	var ev model.Evaluation
	var replay string
	switch {
	case r.Design.Family == design.FamilyReference:
		// Reference designs are answered from the profile's cached
		// reference evaluation at either fidelity (the analytic model is
		// exact on cache-less designs anyway).
		ev = wp.ReferenceEvaluation()
	case r.Fidelity == FidelityAnalytic:
		stopAnalytic := obs.TimeStage(ctx, "analytic")
		ev, err = e.evaluateAnalytic(wp, b)
		stopAnalytic()
		if err != nil {
			return nil, err
		}
	default:
		b.Fault = r.Fault.config()
		ev, replay, err = e.evaluateExact(ctx, wp, b)
		if err != nil {
			return nil, err
		}
	}
	var replayed uint64
	if replay == replayOwn {
		replayed = uint64(wp.Boundary.Len())
	}
	return &EvalResult{
		Design:        ev.Design,
		Workload:      r.Workload,
		Scale:         r.Scale,
		WorkloadScale: r.WorkloadScale,
		Key:           r.Key(),
		Metrics:       evalMetrics(ev),
		ReplayRefs:    replayed,
		EvalMS:        float64(time.Since(start)) / float64(time.Millisecond),
		replay:        replay,
	}, nil
}

// evalMetrics is the full metric set (MetricNames) of an evaluation.
func evalMetrics(ev model.Evaluation) map[string]float64 {
	return map[string]float64{
		"amat_ns":     ev.AMATNanos,
		"runtime_sec": ev.RuntimeSec,
		"dynamic_j":   ev.DynamicJ,
		"static_j":    ev.StaticJ,
		"total_j":     ev.TotalJ,
		"edp":         ev.EDP,
		"norm_time":   ev.NormTime,
		"norm_energy": ev.NormEnergy,
		"norm_edp":    ev.NormEDP,

		"fault_corrected":     float64(ev.Fault.Corrected),
		"fault_uncorrected":   float64(ev.Fault.Uncorrected),
		"fault_stuck_lines":   float64(ev.Fault.StuckLines),
		"fault_retired_pages": float64(ev.Fault.RetiredPages),
		"fault_remapped":      float64(ev.Fault.Remapped),
	}
}

// evaluateExact answers design point b at exact fidelity through the
// snapshot tier. replay reports whether this call replayed (replayOwn),
// which it counts with the device faults the replay injected, or another's
// replay answered it (replayShared).
func (e *Evaluator) evaluateExact(ctx context.Context, wp *exp.WorkloadProfile, b design.Backend) (ev model.Evaluation, replay string, err error) {
	ev, own, err := e.snaps.Do(ctx, wp, b)
	if err != nil {
		return ev, "", err
	}
	if !own {
		return ev, replayShared, nil
	}
	defer obs.TimeStage(ctx, "fault_account")()
	n := uint64(wp.Boundary.Len())
	e.replays.Add(1)
	e.replayedRefs.Add(n)
	e.replaysTotal.Add(1)
	e.replayRefsTotal.Add(n)
	e.faultCorrected.Add(ev.Fault.Corrected)
	e.faultUncorrected.Add(ev.Fault.Uncorrected)
	e.faultRetired.Add(ev.Fault.RetiredPages)
	e.faultRemapped.Add(ev.Fault.Remapped)
	return ev, replayOwn, nil
}
