// Package serve is the simulation-as-a-service layer: a long-running HTTP
// JSON API (mounted by cmd/memsimd) that evaluates design points on demand
// instead of re-replaying the whole reference stream per CLI invocation.
//
// The expensive work — profiling a workload through the shared SRAM prefix
// and replaying its recorded boundary stream into a design back end — runs
// on the same exp harness the CLI tools use, so server results are
// bit-identical to paperrepro's. Around that core the package adds the
// production hygiene a design-space exploration service needs:
//
//   - an LRU result cache keyed by a canonical SHA-256 hash of the
//     (design, workload, parameters, fidelity) tuple, with
//     singleflight-style deduplication so concurrent identical requests
//     trigger one replay;
//   - a two-fidelity evaluation path: requests with fidelity "analytic"
//     answer from the workload profile's reuse sketch (package analytic)
//     in microseconds with zero replay, under their own "analytic"
//     latency-histogram outcome, with a typed 400
//     (CodeAnalyticUnsupported) when the analytic model cannot serve the
//     design;
//   - request validation with typed JSON error responses (APIError);
//   - per-request timeouts and cancellation that genuinely abort in-flight
//     replays (exp.EvaluateCtx's chunked replay);
//   - a bounded in-flight evaluation limit with 429 backpressure;
//   - admission control ahead of that limit (see internal/admit): an
//     optional per-client token-bucket rate limiter (429 rate_limited
//     with the actual bucket refill time as Retry-After), client deadline
//     propagation via X-Memsimd-Deadline-Ms with load shedding (503
//     would_deadline when the remaining deadline is below the live
//     service-time estimate);
//   - wounded-store self-healing (StoreGuard): a durable-tier write
//     failure quarantines the store, serving continues cache/replay-only
//     while a background reopen with equal-jitter backoff restores
//     durability, with every transition logged and gauged;
//   - graceful shutdown that drains active evaluations;
//   - /healthz and /readyz probes, metrics on GET /metrics (request
//     totals, cache hit ratio, replay milliseconds saved), and obs.Logger
//     run events;
//   - request-scoped observability: every evaluate request runs under its
//     own trace (honoring a client X-Trace-Id), logs an http_request event
//     with a per-stage wall-time breakdown, and feeds an outcome-labeled
//     latency histogram exposed — with the cache, replay, and fault
//     metrics — in Prometheus text format on GET /metrics;
//   - a crash-proof evaluation path: panics recover into typed CodePanic
//     errors, and because an evaluation is a pure function of its key, a
//     permanent failure (a panic or an internal error) is remembered as a
//     negative entry in the result LRU for NegativeTTL — repeats of the
//     key get the same typed error (X-Memsimd-Cache: negative) without
//     spending replay capacity;
//   - an optional durable tier (Config.StoreGuard over internal/store):
//     results evicted from the LRU — or computed by a previous process —
//     are served from disk as "store_hit" and written through on every
//     miss, and workload profiles persist/restore with zero boundary
//     replay, so a restart warms from the on-disk index instead of
//     re-simulating (see FORMATS.md for the on-disk format).
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hybridmem/internal/admit"
	"hybridmem/internal/design"
	"hybridmem/internal/fault"
	"hybridmem/internal/lru"
	"hybridmem/internal/obs"
	"hybridmem/internal/tech"
	"hybridmem/internal/workload/catalog"
)

// Runner computes evaluation results. *Evaluator is the production
// implementation; the indirection lets tests substitute slow or failing
// runners to exercise backpressure, timeout, and drain behaviour.
type Runner interface {
	Evaluate(ctx context.Context, req *EvalRequest) (*EvalResult, error)
}

// DefaultCacheEntries bounds the result cache when Config.CacheEntries is
// zero. Results are small (one metric map each), so the default is roomy.
const DefaultCacheEntries = 4096

// DefaultTimeout is the per-request evaluation deadline when
// Config.Timeout is zero.
const DefaultTimeout = 2 * time.Minute

// NegativeTTL is how long a key's permanent evaluation failure (a panic or
// an internal error) stays in the result LRU as a negative entry: long
// enough that a sweep hammering a broken design costs one evaluation per
// key per minute, short enough that a failure wrongly classed as permanent
// heals on its own.
const NegativeTTL = time.Minute

// Config assembles a Server.
type Config struct {
	// Runner evaluates requests (required; typically NewEvaluator).
	Runner Runner
	// CacheEntries bounds the LRU result cache (0 = DefaultCacheEntries).
	CacheEntries int
	// MaxInFlight bounds concurrently executing evaluations; requests
	// beyond it receive 429 (0 = GOMAXPROCS).
	MaxInFlight int
	// Timeout is the per-request evaluation deadline (0 = DefaultTimeout,
	// negative = no deadline).
	Timeout time.Duration
	// Chaos injects deterministic service-level faults for resilience
	// testing: the evaluation of a poisoned key panics after spending its
	// replay (nil = none; see fault.ServicePlan).
	Chaos *fault.ServicePlan
	// Catalog is the technology catalog requests resolve against (nil =
	// tech.Builtin(), the paper's Table 1 plus post-2014 extensions).
	// Request TechOverrides derive from it per request; its content hash
	// is folded into every result-cache, store, and profile key, so
	// serving a different catalog can never reuse stale results.
	Catalog *tech.Catalog
	// StoreGuard, when non-nil, adds a durable result tier behind the
	// in-process LRU: cache misses probe the on-disk index before spending
	// replay capacity (outcome "store_hit", promoted back into the LRU),
	// and freshly computed results are written through so the next
	// process restarts warm. The guard routes that traffic through
	// wounded-store self-healing and is typically shared with the
	// Evaluator via SetStoreGuard, so one background reopen heals both the
	// result and profile paths. The server does not close it. See
	// internal/store and FORMATS.md.
	StoreGuard *StoreGuard
	// RateLimit enables per-client token-bucket admission control ahead
	// of the in-flight semaphore when Rate > 0 (see internal/admit).
	// Clients are keyed by the X-Memsimd-Client header, falling back to
	// the request's remote host; a throttled request is refused with 429
	// rate_limited before any validation or cache work.
	RateLimit admit.LimiterConfig
	// Log receives http_request events (may be nil).
	Log *obs.Logger
}

// Server is the HTTP evaluation service. Create with New, mount Handler,
// and on shutdown call BeginShutdown followed by Drain.
type Server struct {
	cfg Config
	// cache maps request keys to results, or to the *APIError of a key
	// that failed permanently: an evaluation is a pure function of its
	// key, so the negative entry answers repeats for NegativeTTL.
	cache    *lru.Cache[*EvalResult]
	inflight chan struct{}
	limiter  *admit.Limiter
	guard    *StoreGuard
	ready    atomic.Bool
	draining atomic.Bool
	active   sync.WaitGroup

	// estimate predicts one evaluation's service time for deadline-aware
	// shedding; the default reads the live miss-latency histogram (see
	// estimateServiceTime). Tests substitute a fixed estimator.
	estimate func() time.Duration

	requests   *obs.Counter
	hits       *obs.Counter
	misses     *obs.Counter
	rejected   *obs.Counter
	savedMS    *obs.Counter
	evalErrors *obs.Counter
	panics     *obs.Counter

	// Negative-entry traffic: permanent failures remembered in the result
	// LRU, and repeats answered from them without an evaluation.
	negativeEntries *obs.Counter
	negativeHits    *obs.Counter

	// Admission-control outcomes: requests refused by the per-client
	// limiter, and requests shed because their propagated deadline could
	// not be met.
	rateLimited  *obs.Counter
	deadlineShed *obs.Counter

	// Per-client admission traffic, bounded-cardinality (the obs vec caps
	// distinct label values and overflows to "other").
	clientRequests  *obs.CounterVec
	clientThrottled *obs.CounterVec

	// Durable-tier traffic (zero without Config.StoreGuard): storeHits are
	// requests answered from disk after an LRU miss; storeMisses fell
	// through to evaluation; storeWriteErrors are dropped write-throughs.
	storeHits        *obs.Counter
	storeMisses      *obs.Counter
	storeWriteErrors *obs.Counter
	// storeDropped counts write-throughs skipped while the durable tier
	// is quarantined (StoreStateDegraded) — expected behaviour, not
	// errors.
	storeDropped *obs.Counter

	// latency is the outcome-labeled evaluate-request latency histogram
	// (memsimd_request_seconds on /metrics). Like the counters above it is
	// process-global and shared by every Server in the process.
	latency *obs.HistogramVec
}

// errOverloaded is the internal sentinel for a full in-flight limit.
var errOverloaded = errors.New("serve: in-flight evaluation limit reached")

// New builds a Server from cfg, resolving zero fields to defaults.
func New(cfg Config) *Server {
	if cfg.CacheEntries == 0 {
		cfg.CacheEntries = DefaultCacheEntries
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = runtime.GOMAXPROCS(0)
	}
	if cfg.Timeout == 0 {
		cfg.Timeout = DefaultTimeout
	}
	if cfg.Catalog == nil {
		cfg.Catalog = tech.Builtin()
	}
	s := &Server{
		cfg:      cfg,
		cache:    lru.New[*EvalResult](cfg.CacheEntries),
		inflight: make(chan struct{}, cfg.MaxInFlight),
		limiter:  admit.NewLimiter(cfg.RateLimit),
		guard:    cfg.StoreGuard,

		requests:   obs.NewCounter("memsimd.requests_total"),
		hits:       obs.NewCounter("memsimd.cache_hits"),
		misses:     obs.NewCounter("memsimd.cache_misses"),
		rejected:   obs.NewCounter("memsimd.rejected_total"),
		savedMS:    obs.NewCounter("memsimd.replay_ms_saved"),
		evalErrors: obs.NewCounter("memsimd.eval_errors"),
		panics:     obs.NewCounter("memsimd.panics_recovered"),

		negativeEntries: obs.NewCounter("memsimd.negative_entries_total"),
		negativeHits:    obs.NewCounter("memsimd.negative_hits"),

		rateLimited:  obs.NewCounter("memsimd.rate_limited_total"),
		deadlineShed: obs.NewCounter("memsimd.deadline_shed_total"),

		clientRequests: obs.NewCounterVec("memsimd.client_requests",
			"Evaluate requests by admission-control client key.", "client"),
		clientThrottled: obs.NewCounterVec("memsimd.client_throttled",
			"Rate-limited (429 rate_limited) requests by client key.", "client"),

		storeHits:        obs.NewCounter("memsimd.store_hits"),
		storeMisses:      obs.NewCounter("memsimd.store_misses"),
		storeWriteErrors: obs.NewCounter("memsimd.store_write_errors"),
		storeDropped:     obs.NewCounter("memsimd.store_dropped_writes"),

		latency: obs.NewLatencyHistogramVec("memsimd.request_seconds",
			"Evaluate-request latency by outcome (hit, miss, analytic, dedup, negative, invalid, timeout, ...).",
			"outcome"),
	}
	s.estimate = s.estimateServiceTime
	s.ready.Store(true)
	hitRatio := func() float64 {
		h, m := s.hits.Value(), s.misses.Value()
		if h+m == 0 {
			return 0.0
		}
		return float64(h) / float64(h+m)
	}
	// The registry keeps the first registration per name, so in a
	// multi-Server process (tests) this gauge reports the first Server.
	// The counters it derives from are process-global anyway.
	obs.RegisterGaugeFunc("memsimd.cache_hit_ratio",
		"Result-cache hit ratio (hits / (hits + misses)) since process start.", hitRatio)
	return s
}

// SetReady flips the /readyz state; cmd/memsimd holds the server not-ready
// until its optional warmup profiling completes.
func (s *Server) SetReady(ready bool) { s.ready.Store(ready) }

// BeginShutdown marks the server draining: /readyz turns 503 (so load
// balancers stop routing here) and new evaluation requests are refused
// with CodeShuttingDown. In-flight evaluations continue; wait for them
// with Drain.
func (s *Server) BeginShutdown() {
	s.draining.Store(true)
	s.ready.Store(false)
}

// Drain blocks until every in-flight evaluation request has finished or
// ctx expires.
func (s *Server) Drain(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		s.active.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Handler returns the service's routes:
//
//	GET  /healthz      liveness (always 200 while the process runs)
//	GET  /readyz       readiness (503 while warming up or draining)
//	GET  /v1/workloads catalog workload names
//	GET  /v1/designs   design families, table rows, technologies
//	POST /v1/evaluate  evaluate one design point (EvalRequest/EvalResult)
//	GET  /metrics      Prometheus text-format exposition (zero-dep) of every
//	                   counter, gauge and histogram, including the cache
//	                   hit ratio
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if !s.ready.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			io.WriteString(w, "not ready\n")
			return
		}
		// A wounded durable tier degrades readiness without failing it:
		// the server still answers from cache and replay, so load
		// balancers keep routing here, but the body (and the
		// memsimd_store_state gauge) tell operators durability is off
		// until the background reopen completes.
		if s.guard != nil && s.guard.State() == StoreStateDegraded {
			io.WriteString(w, "degraded: durable store wounded, reopen in progress\n")
			return
		}
		io.WriteString(w, "ready\n")
	})
	mux.HandleFunc("GET /v1/workloads", s.handleWorkloads)
	mux.HandleFunc("GET /v1/designs", s.handleDesigns)
	mux.HandleFunc("POST /v1/evaluate", s.handleEvaluate)
	mux.Handle("GET /metrics", obs.MetricsHandler())
	return mux
}

// handleWorkloads lists the evaluable workloads.
func (s *Server) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]any{
		"workloads": catalog.Names,
		"extended":  catalog.ExtendedNames,
	})
}

// handleDesigns lists the design space from the serving catalog: families,
// their configuration-table rows, the technology axes (class members, with
// post-2014 catalog extensions listed separately from the paper defaults),
// and the catalog's identity so clients can pin catalog_version.
func (s *Server) handleDesigns(w http.ResponseWriter, r *http.Request) {
	cat := s.cfg.Catalog
	families := map[string]any{
		design.FamilyReference: map[string]any{},
		design.FamilyCustom:    map[string]any{"note": "free-form hierarchy; see design.Custom"},
	}
	for _, f := range design.GridFamilies {
		axes := map[string]any{"configs": f.Configs}
		if f.LLC {
			axes["llc"] = tech.Names(cat.Class(tech.ClassLLC))
		}
		if f.NVM {
			axes["nvm"] = tech.Names(cat.Class(tech.ClassNVM))
		}
		families[f.Name] = axes
	}
	var extensions []string
	for _, e := range cat.Extensions() {
		extensions = append(extensions, e.Tech.Name)
	}
	writeJSON(w, map[string]any{
		"families":   families,
		"techs":      cat.TechNames(),
		"extensions": extensions,
		"metrics":    MetricNames,
		"catalog": map[string]any{
			"name":    cat.Name(),
			"version": cat.Version(),
			"hash":    cat.Hash(),
		},
	})
}

// maxBodyBytes bounds evaluate request bodies.
const maxBodyBytes = 1 << 20

// handleEvaluate is the core endpoint: validate, consult the result cache
// (results and negative entries), and on a miss run (or join) the
// deduplicated evaluation flight.
//
// Every request runs under its own trace (a client-supplied X-Trace-Id pins
// the trace ID; the response echoes it in X-Memsimd-Trace) with a stage
// accumulator on the context, so the exp layers below attribute their wall
// time (profile, build, decode, replay, ...) back to this request. The
// final http_request event carries the trace IDs, the outcome, and the full
// per-stage breakdown; the outcome also labels the request-latency
// histogram on /metrics.
func (s *Server) handleEvaluate(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.requests.Add(1)
	ctx, span := obs.StartTrace(r.Context(), obs.ParseTraceID(r.Header.Get("X-Trace-Id")))
	ctx = obs.ContextWithStages(ctx, obs.NewStages())
	w.Header().Set("X-Memsimd-Trace", span.TraceID)

	var req EvalRequest
	// replay tags an exact miss's http_request event: "own" when the
	// evaluation replayed, "shared" when its replay class's snapshot
	// answered it.
	var replay string
	// respond writes one terminal response (timed as the "encode" stage),
	// then records the outcome-labeled latency sample and the http_request
	// event — after the write, so the logged breakdown includes encode.
	respond := func(status int, outcome string, write func()) {
		stopEncode := obs.TimeStage(ctx, "encode")
		write()
		stopEncode()
		s.latency.With(outcome).ObserveDuration(time.Since(start))
		s.logRequest(ctx, r, status, start, outcome, &req, replay)
	}
	fail := func(outcome string, apiErr *APIError) {
		respond(httpStatus(apiErr.Code), outcome, func() { writeError(w, apiErr) })
	}

	if s.draining.Load() {
		// Draining is transient from the fleet's point of view: tell the
		// client to retry (elsewhere, or here after a restart) instead of
		// failing the sweep.
		fail("shutting_down", &APIError{
			Code:         CodeShuttingDown,
			Message:      "server is shutting down; retry against another instance",
			RetryAfterMS: drainRetryAfterMS,
			JitterMS:     drainRetryAfterMS / 2,
		})
		return
	}
	s.active.Add(1)
	defer s.active.Done()

	// Admission control, cheapest checks first — all before the body is
	// even read. The per-client token bucket caps each client's request
	// rate independently, so one saturating sweep cannot starve an
	// interactive caller; the refused request costs the server one map
	// lookup and no allocation.
	if s.limiter != nil {
		client := clientKey(r)
		s.clientRequests.With(client).Add(1)
		if retryAfter, ok := s.limiter.Allow(client); !ok {
			s.rateLimited.Add(1)
			s.clientThrottled.With(client).Add(1)
			ms := retryAfter.Milliseconds()
			if ms < 1 {
				ms = 1
			}
			fail("rate_limited", &APIError{
				Code:         CodeRateLimited,
				Message:      "client " + client + " exceeded its admission rate",
				RetryAfterMS: ms,
				JitterMS:     ms / 2,
			})
			return
		}
	}

	// Deadline propagation: X-Memsimd-Deadline-Ms bounds this request's
	// whole evaluation (the per-server Timeout still applies as a cap).
	if h := r.Header.Get(deadlineHeader); h != "" {
		ms, err := strconv.ParseInt(h, 10, 64)
		if err != nil || ms <= 0 {
			fail("invalid", errField(CodeInvalidRequest, deadlineHeader,
				"deadline must be a positive integer millisecond count"))
			return
		}
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(ms)*time.Millisecond)
		defer cancel()
	}

	stopValidate := obs.TimeStage(ctx, "validate")
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		stopValidate()
		fail("invalid", errField(CodeInvalidRequest, "", "invalid JSON body: "+err.Error()))
		return
	}
	if apiErr := req.NormalizeWith(s.cfg.Catalog); apiErr != nil {
		stopValidate()
		fail("invalid", apiErr)
		return
	}
	stopValidate()
	key := req.Key()

	stopLookup := obs.TimeStage(ctx, "cache_lookup")
	res, negative, ok := s.cache.Get(key)
	stopLookup()
	if ok && negative != nil {
		failure := toAPIError(negative)
		// A negative entry: this key's evaluation already failed
		// permanently, and it is a pure function of the key, so answer the
		// repeat with the same typed error instead of failing it again.
		s.negativeHits.Add(1)
		respond(httpStatus(failure.Code), "negative", func() {
			w.Header().Set("X-Memsimd-Cache", "negative")
			writeError(w, failure)
		})
		return
	}
	if ok {
		s.hits.Add(1)
		s.savedMS.Add(uint64(res.EvalMS))
		respond(http.StatusOK, "hit", func() { s.writeResult(w, &req, res, "hit") })
		return
	}

	// Durable second tier: one index map probe per cold miss.
	// Like an LRU hit, a store hit costs no replay capacity; the result is
	// promoted back into the LRU so the next identical request is a plain
	// "hit".
	if s.guard != nil {
		stopStore := obs.TimeStage(ctx, "store_lookup")
		res, ok = s.storeGet(key)
		stopStore()
		if ok {
			s.storeHits.Add(1)
			s.savedMS.Add(uint64(res.EvalMS))
			s.cache.Add(key, res)
			respond(http.StatusOK, "store_hit", func() { s.writeResult(w, &req, res, "store_hit") })
			return
		}
		s.storeMisses.Add(1)
	}

	// Deadline-aware shedding: every cheap way to answer has missed, so
	// this request is about to queue for a replay slot. If its remaining
	// deadline is under the live estimate of one evaluation's service
	// time, it is doomed — shed it now so the slot goes to a request
	// that can still make it.
	if dl, ok := ctx.Deadline(); ok {
		if est := s.estimate(); est > 0 && time.Until(dl) < est {
			s.deadlineShed.Add(1)
			fail("would_deadline", &APIError{
				Code: CodeWouldDeadline,
				Message: "remaining deadline is below the estimated service time (" +
					est.Round(time.Millisecond).String() + "); retry with a longer deadline",
			})
			return
		}
	}

	if s.cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.Timeout)
		defer cancel()
	}
	res, ran, err := s.cache.Do(ctx, key, func() (*EvalResult, error) {
		select {
		case s.inflight <- struct{}{}:
		default:
			return nil, errOverloaded
		}
		defer func() { <-s.inflight }()
		res, err := s.safeEvaluate(ctx, &req, key)
		if err != nil {
			if failure, ok := s.permanentFailure(ctx, err); ok {
				s.cache.AddNegative(key, failure, NegativeTTL)
				s.negativeEntries.Add(1)
			}
		}
		return res, err
	})
	if err != nil {
		apiErr := toAPIError(err)
		switch apiErr.Code {
		case CodeOverloaded:
			s.rejected.Add(1)
		case CodeInternal:
			s.evalErrors.Add(1)
		}
		fail(outcomeForCode(apiErr.Code), apiErr)
		return
	}
	if ran {
		s.misses.Add(1)
		if s.guard != nil {
			stopWrite := obs.TimeStage(ctx, "store_write")
			s.storePut(key, res)
			stopWrite()
		}
		// Analytic-fidelity computations get their own latency-histogram
		// outcome: they are orders of magnitude cheaper than a replay
		// miss, and folding them into "miss" would poison the
		// deadline-shedding service-time estimate.
		outcome := "miss"
		if req.Fidelity == FidelityAnalytic {
			outcome = "analytic"
		}
		replay = res.replay
		respond(http.StatusOK, outcome, func() { s.writeResult(w, &req, res, outcome) })
		return
	}
	// Another request's evaluation of the key answered this one: a
	// follower of its flight, or one that finished since the lookup above.
	// Report the shared result as a hit.
	s.hits.Add(1)
	s.savedMS.Add(uint64(res.EvalMS))
	respond(http.StatusOK, "dedup", func() { s.writeResult(w, &req, res, "dedup") })
}

// storeGet probes the durable tier for a cached result. Read or decode
// failures degrade to a miss — the request falls through to evaluation and
// the write-through replaces the bad document.
func (s *Server) storeGet(key string) (*EvalResult, bool) {
	val, ok, err := s.guard.GetDoc(key)
	if err != nil || !ok {
		if err != nil && s.cfg.Log != nil {
			s.cfg.Log.Warn("store_read_failed", obs.Fields{"key": key, "err": err.Error()})
		}
		return nil, false
	}
	res := new(EvalResult)
	if err := json.Unmarshal(val, res); err != nil {
		if s.cfg.Log != nil {
			s.cfg.Log.Warn("store_decode_failed", obs.Fields{"key": key, "err": err.Error()})
		}
		return nil, false
	}
	return res, true
}

// storePut writes a freshly computed result through to the durable tier.
// Failures are logged and dropped: the request already has its answer, and
// only the next process restart loses the warm copy. Writes skipped while
// the store is quarantined count separately (storeDropped) — degraded mode
// working as intended, not an error.
func (s *Server) storePut(key string, res *EvalResult) {
	val, err := json.Marshal(res)
	if err == nil {
		err = s.guard.PutDoc(key, val)
	}
	if errors.Is(err, errStoreDegraded) {
		s.storeDropped.Add(1)
		return
	}
	if err != nil {
		s.storeWriteErrors.Add(1)
		if s.cfg.Log != nil {
			s.cfg.Log.Warn("store_write_failed", obs.Fields{"key": key, "err": err.Error()})
		}
	}
}

// deadlineHeader carries the client's end-to-end deadline for one request
// in whole milliseconds; the server refuses work it estimates cannot
// finish in time (CodeWouldDeadline).
const deadlineHeader = "X-Memsimd-Deadline-Ms"

// clientHeader names the admission-control client; absent, the client key
// falls back to the request's remote host.
const clientHeader = "X-Memsimd-Client"

// drainRetryAfterMS is the backoff guidance attached to shutting_down
// refusals: long enough for a load balancer to notice /readyz went 503.
const drainRetryAfterMS = 2000

// estimatorMinSamples is how many miss-outcome observations the latency
// histogram needs before deadline-aware shedding trusts its quantiles; a
// cold server sheds nothing.
const estimatorMinSamples = 20

// clientKey derives a request's admission-control identity: the
// X-Memsimd-Client header when present (deployments put an API key or
// tenant ID there), else the remote host with its ephemeral port dropped,
// so reconnecting clients keep one bucket.
func clientKey(r *http.Request) string {
	if c := r.Header.Get(clientHeader); c != "" {
		return c
	}
	host := r.RemoteAddr
	if i := strings.LastIndexByte(host, ':'); i >= 0 {
		host = host[:i]
	}
	return host
}

// estimateServiceTime predicts one uncached evaluation's duration from the
// live request-latency histogram: the p90 of the "miss" outcome, the
// pessimistic-but-honest bound a doomed-work check wants. Returns 0 (shed
// nothing) until enough misses have been observed.
func (s *Server) estimateServiceTime() time.Duration {
	snap := s.latency.With("miss").Snapshot()
	if snap.Count < estimatorMinSamples {
		return 0
	}
	return time.Duration(snap.Quantile(0.9))
}

// outcomeForCode maps a terminal API error code onto the request-latency
// histogram's outcome label.
func outcomeForCode(code string) string {
	switch code {
	case CodeInvalidRequest, CodeUnknownWorkload, CodeUnknownDesign, CodeUnknownTech, CodeCatalogMismatch:
		return "invalid"
	case CodeShuttingDown:
		return "shutting_down"
	case CodeOverloaded:
		return "overloaded"
	case CodeRateLimited:
		return "rate_limited"
	case CodeWouldDeadline:
		return "would_deadline"
	case CodeTimeout:
		return "timeout"
	case CodeCanceled:
		return "canceled"
	case CodePanic:
		return "panic"
	default:
		return "error"
	}
}

// safeEvaluate runs one evaluation with the resilience wrapping: a panic
// anywhere below — injected or organic — is recovered into a typed
// *fault.PanicError so the worker survives and the request fails with
// CodePanic. Every *fault.PanicError the evaluation ends with, whether
// recovered here or below (exp recovers replay and profiling panics
// itself), counts in memsimd.panics_recovered and logs panic_recovered.
// A chaos-poisoned key panics after its evaluation has spent its replay,
// the costliest way a design can fail, so a repeat that reached the
// evaluator would show in memsimd.replays_total.
func (s *Server) safeEvaluate(ctx context.Context, req *EvalRequest, key string) (res *EvalResult, err error) {
	defer func() {
		var pe *fault.PanicError
		if !errors.As(err, &pe) {
			return
		}
		s.panics.Add(1)
		if s.cfg.Log != nil {
			s.cfg.Log.Warn("panic_recovered", obs.Fields{
				"design": req.Design.Label(), "workload": req.Workload,
				"panic": err.Error(),
			})
		}
	}()
	defer fault.RecoverTo(&err, "evaluate "+req.Design.Label())
	res, err = s.cfg.Runner.Evaluate(ctx, req)
	if s.cfg.Chaos.Poisoned(key) {
		panic("chaos: poisoned design point " + req.Design.Label())
	}
	return res, err
}

// permanentFailure reports whether err is a permanent failure of the key's
// evaluation — worth remembering as a negative entry — and its typed form.
// Only panics and internal errors qualify. Timeouts, cancellations and
// backpressure say nothing about the key, and a failure that raced the
// request's own context ending is suspect, so none of them is remembered.
func (s *Server) permanentFailure(ctx context.Context, err error) (*APIError, bool) {
	if ctx.Err() != nil {
		return nil, false
	}
	apiErr := toAPIError(err)
	switch apiErr.Code {
	case CodePanic, CodeInternal:
		return apiErr, true
	}
	return nil, false
}

// toAPIError maps evaluation-path failures onto typed API errors.
func toAPIError(err error) *APIError {
	var apiErr *APIError
	var panicErr *fault.PanicError
	switch {
	case errors.As(err, &apiErr):
		return apiErr
	case errors.Is(err, errOverloaded):
		return &APIError{Code: CodeOverloaded, Message: "evaluation capacity exhausted; retry shortly",
			RetryAfterMS: 1000, JitterMS: 500}
	case errors.Is(err, context.DeadlineExceeded):
		return &APIError{Code: CodeTimeout, Message: "evaluation deadline exceeded; in-flight replay aborted"}
	case errors.Is(err, context.Canceled):
		return &APIError{Code: CodeCanceled, Message: "request canceled; in-flight replay aborted"}
	case errors.As(err, &panicErr):
		return &APIError{Code: CodePanic, Message: panicErr.Error()}
	default:
		return &APIError{Code: CodeInternal, Message: err.Error()}
	}
}

// writeResult emits a 200 evaluation response, filtering metrics to the
// request's selection and stamping the cache-status headers the quickstart
// documents.
func (s *Server) writeResult(w http.ResponseWriter, req *EvalRequest, res *EvalResult, status string) {
	out := *res
	if len(req.Metrics) > 0 {
		filtered := make(map[string]float64, len(req.Metrics))
		for _, m := range req.Metrics {
			if v, ok := res.Metrics[m]; ok {
				filtered[m] = v
			}
		}
		out.Metrics = filtered
	}
	w.Header().Set("X-Memsimd-Cache", status)
	w.Header().Set("X-Memsimd-Key", res.Key)
	writeJSON(w, out)
}

// writeJSON emits v as a 200 JSON response.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// logRequest emits one http_request run-log event (nil logger = no-op),
// tagged with the request's trace IDs, outcome, replay (how an exact miss
// got its statistics; "" omits it), and — when the context carries a stage
// accumulator — the per-stage wall-time breakdown.
func (s *Server) logRequest(ctx context.Context, r *http.Request, status int, start time.Time, outcome string, req *EvalRequest, replay string) {
	if s.cfg.Log == nil {
		return
	}
	f := obs.Fields{
		"method":  r.Method,
		"path":    r.URL.Path,
		"status":  status,
		"outcome": outcome,
		"wall_ms": float64(time.Since(start)) / float64(time.Millisecond),
	}
	switch outcome {
	case "hit", "miss", "dedup", "store_hit", "negative":
		f["cache"] = outcome
	}
	if req != nil && req.Workload != "" {
		f["workload"] = req.Workload
		f["design"] = req.Design.Family + "/" + req.Design.Config
	}
	if replay != "" {
		f["replay"] = replay
	}
	for k, v := range obs.StagesFrom(ctx).Fields() {
		f[k] = v
	}
	s.cfg.Log.EventCtx(ctx, "http_request", f)
}
