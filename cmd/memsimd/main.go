// Command memsimd serves design-point evaluations over HTTP: the
// simulation-as-a-service front end of the exp harness (see internal/serve
// and the "Serving" section of README.md).
//
// Usage:
//
//	memsimd                          # listen on :8080
//	memsimd -addr 127.0.0.1:9090     # custom listen address
//	memsimd -warm Graph500           # profile one workload before readying
//	memsimd -store /var/lib/memsimd  # durable result + profile store
//	memsimd -runlog -                # JSONL request/profiling events to stderr
//	memsimd -rate-limit 5 -rate-burst 20     # per-client admission control
//
// Evaluate a design point:
//
//	curl -s localhost:8080/v1/evaluate -d '{"design":"4LC/EH4","workload":"Graph500"}'
//
// Identical requests are answered from an LRU cache (X-Memsimd-Cache: hit)
// without re-replaying the boundary stream; /debug/vars exports request,
// cache-hit, and memsimd.replay_ms_saved counters, and GET /metrics serves
// the same registry in Prometheus text format (request-latency histograms by
// outcome, cache hit ratio, negative-entry, replay and fault counters).
// A design point whose evaluation fails permanently (a panic or an internal
// error) is remembered for a minute: repeats get the same typed error
// (X-Memsimd-Cache: negative) without evaluating again.
// Every evaluate response carries X-Memsimd-Trace; pass X-Trace-Id to pin
// the trace ID and correlate the -runlog events of one request (see
// cmd/obsreport). SIGINT/SIGTERM trigger a graceful drain of in-flight
// evaluations.
//
// With -store, evaluation results and workload profiles persist across
// restarts (content-addressed on-disk format, FORMATS.md): startup is an
// O(index) scan — no boundary replay — after which previously computed
// design points answer as X-Memsimd-Cache: store_hit and previously
// profiled workloads, tracecat -capture records included, restore without
// a profiling pass. Combine with -warm to verify the restore before
// reporting ready.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"hybridmem/internal/admit"
	"hybridmem/internal/fault"
	"hybridmem/internal/obs"
	"hybridmem/internal/serve"
	"hybridmem/internal/store"
	"hybridmem/internal/tech"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		cacheN     = flag.Int("cache", serve.DefaultCacheEntries, "result-cache entries (LRU)")
		profiles   = flag.Int("profiles", serve.DefaultMaxProfiles, "cached workload profiles (LRU; each holds a boundary stream)")
		inflight   = flag.Int("max-inflight", 0, "max concurrently executing evaluations (0 = GOMAXPROCS); excess requests get 429")
		timeout    = flag.Duration("timeout", serve.DefaultTimeout, "per-request evaluation deadline (negative = none)")
		warm       = flag.String("warm", "", "workload name to profile (or restore from -store) before reporting ready (optional)")
		warmScale  = flag.Uint64("warm-scale", 0, "design scale for the warmup profile (0 = default)")
		warmWScale = flag.Uint64("warm-workload-scale", 0, "workload footprint divisor for the warmup profile (0 = co-scale with -warm-scale)")
		storeDir   = flag.String("store", "", "directory for the durable result/profile store (empty = in-memory only)")
		catalogF   = flag.String("catalog", "", "technology catalog file to serve (hybridmem-catalog/1 JSON; empty = builtin Table 1; see FORMATS.md)")
		runlog     = flag.String("runlog", "", `write structured JSONL run events here ("-" = stderr)`)
		drainFor   = flag.Duration("drain", 30*time.Second, "max time to wait for in-flight evaluations on shutdown")

		rateLimit = flag.Float64("rate-limit", 0, "per-client admission rate in requests/s (0 = unlimited); clients are keyed by X-Memsimd-Client or remote host and throttled requests get 429 rate_limited with Retry-After")
		rateBurst = flag.Float64("rate-burst", 0, "per-client token-bucket burst capacity (0 = the -rate-limit value)")

		chaosPanic = flag.Float64("chaos-panic", 0, "TESTING: fraction of request keys whose evaluation always panics")
		chaosSeed  = flag.Uint64("chaos-seed", 1, "TESTING: seed for the chaos plan's deterministic decisions")
	)
	var prof obs.Profile
	prof.RegisterFlags(flag.CommandLine)
	flag.Parse()

	stopProf, err := prof.Start()
	exitOn(err)
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "memsimd:", err)
		}
	}()

	logw, closeLog, err := obs.OpenSink(*runlog, os.Stderr)
	exitOn(err)
	defer closeLog()
	logger := obs.NewLogger(logw)

	cat, err := tech.LoadCatalogOrBuiltin(*catalogF)
	exitOn(err)
	logger.Event("catalog", obs.Fields{
		"name": cat.Name(), "version": cat.Version(), "hash": cat.Hash(), "techs": cat.Len(),
	})

	var chaos *fault.ServicePlan
	if *chaosPanic > 0 {
		chaos = &fault.ServicePlan{Seed: *chaosSeed, PanicFraction: *chaosPanic}
		fmt.Fprintf(os.Stderr, "memsimd: CHAOS MODE: panic=%g seed=%d\n", *chaosPanic, *chaosSeed)
	}

	// The durable tier opens before the server exists: a warm restart is an
	// index scan (plus torn-tail truncation after a crash), never a replay.
	// The store_open event's wall_ms is the whole startup cost of warmth.
	// All access goes through a self-healing StoreGuard: a wounded store
	// (failed append) is quarantined and reopened in the background while
	// serving continues cache/replay-only.
	var guard *serve.StoreGuard
	if *storeDir != "" {
		openStart := time.Now()
		st, err := store.Open(*storeDir, store.Options{})
		exitOn(err)
		reopen := func() (*store.Store, error) { return store.Open(*storeDir, store.Options{}) }
		guard = serve.NewStoreGuard(st, reopen, fault.RetryPolicy{}, logger)
		defer guard.Close()
		stats := st.Stats()
		logger.Event("store_open", obs.Fields{
			"dir":                  *storeDir,
			"streams":              stats.Streams,
			"docs":                 stats.Docs,
			"blocks":               stats.Blocks,
			"segments":             stats.Segments,
			"torn_bytes_recovered": stats.TornBytesRecovered,
			"wall_ms":              float64(time.Since(openStart)) / float64(time.Millisecond),
		})
		obs.PublishFunc("memsimd.store_stats", func() any { return guard.Stats() })
	}

	ev := serve.NewEvaluator(*profiles, logger)
	if guard != nil {
		ev.SetStoreGuard(guard)
	}
	srv := serve.New(serve.Config{
		Runner:       ev,
		CacheEntries: *cacheN,
		MaxInFlight:  *inflight,
		Timeout:      *timeout,
		RateLimit:    admit.LimiterConfig{Rate: *rateLimit, Burst: *rateBurst},
		Chaos:        chaos,
		StoreGuard:   guard,
		Catalog:      cat,
		Log:          logger,
	})

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	logger.Event("serve_start", obs.Fields{
		"addr": *addr, "cache": *cacheN, "max_inflight": *inflight,
		"timeout_ms": timeout.Milliseconds(),
	})
	fmt.Fprintf(os.Stderr, "memsimd: listening on %s\n", *addr)

	if *warm != "" {
		srv.SetReady(false)
		go func() {
			start := time.Now()
			req := serve.EvalRequest{
				Design:        serve.DesignSpec{Family: "reference"},
				Workload:      *warm,
				Scale:         *warmScale,
				WorkloadScale: *warmWScale,
			}
			if err := warmup(ev, cat, &req); err != nil {
				logger.Warn("warmup failed", obs.Fields{"workload": *warm, "error": err.Error()})
			} else {
				logger.Event("warmup_done", obs.Fields{
					"workload": *warm,
					"wall_ms":  float64(time.Since(start)) / float64(time.Millisecond),
				})
			}
			srv.SetReady(true)
		}()
	}

	// Serve until SIGINT/SIGTERM, then drain gracefully.
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		exitOn(err)
	case sig := <-sigCh:
		fmt.Fprintf(os.Stderr, "memsimd: %v, draining (up to %s)...\n", sig, *drainFor)
		srv.BeginShutdown()
		ctx, cancel := context.WithTimeout(context.Background(), *drainFor)
		defer cancel()
		if err := srv.Drain(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "memsimd: drain:", err)
		}
		if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			fmt.Fprintln(os.Stderr, "memsimd: shutdown:", err)
		}
		logger.Event("serve_end", obs.Fields{"requests": obs.NewCounter("memsimd.requests_total").Value()})
	}
}

// warmup profiles the warm flag's workload through the evaluator so the
// first real request hits a warm profile cache. It normalizes against the
// serving catalog so the warmed profile key matches real traffic.
func warmup(ev *serve.Evaluator, cat *tech.Catalog, req *serve.EvalRequest) error {
	if apiErr := req.NormalizeWith(cat); apiErr != nil {
		return apiErr
	}
	_, err := ev.Evaluate(context.Background(), req)
	return err
}

// exitOn aborts the process on startup errors.
func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "memsimd:", err)
		os.Exit(1)
	}
}
