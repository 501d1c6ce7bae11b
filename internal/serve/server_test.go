package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"hybridmem/internal/design"
	"hybridmem/internal/exp"
	"hybridmem/internal/tech"
	"hybridmem/internal/workload"
	"hybridmem/internal/workload/catalog"
)

// Test requests use the same shrunken co-scaled configuration as the exp
// integration tests: CG at workload scale 2048 under a scale-64 design
// space profiles in tens of milliseconds.
const (
	testScale  = 64
	testWScale = 2048
)

// testBody builds the canonical JSON body used across cache tests.
func testBody(designPath string) string {
	return fmt.Sprintf(`{"design":%q,"workload":"CG","scale":%d,"workload_scale":%d}`,
		designPath, testScale, testWScale)
}

// newTestServer wires a real evaluator behind a test server.
func newTestServer(t *testing.T, cfg Config) (*Server, *Evaluator, *httptest.Server) {
	t.Helper()
	ev := NewEvaluator(0, nil)
	cfg.Runner = ev
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ev, ts
}

// post sends an evaluate request and decodes the response body.
func post(t *testing.T, ts *httptest.Server, body string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/evaluate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var decoded map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&decoded); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp, decoded
}

// errorCode digs the typed error code out of a decoded error body.
func errorCode(t *testing.T, decoded map[string]any) string {
	t.Helper()
	e, ok := decoded["error"].(map[string]any)
	if !ok {
		t.Fatalf("no error object in %v", decoded)
	}
	code, _ := e["code"].(string)
	return code
}

func TestValidationErrors(t *testing.T) {
	_, _, ts := newTestServer(t, Config{})
	cases := []struct {
		name     string
		body     string
		status   int
		wantCode string
	}{
		{"malformed JSON", `{"design":`, http.StatusBadRequest, CodeInvalidRequest},
		{"unknown field", `{"designz":"4LC/EH4"}`, http.StatusBadRequest, CodeInvalidRequest},
		{"missing workload", `{"design":"4LC/EH4"}`, http.StatusBadRequest, CodeInvalidRequest},
		{"unknown workload", `{"design":"4LC/EH4","workload":"nope"}`, http.StatusNotFound, CodeUnknownWorkload},
		{"unknown family", `{"design":{"family":"5LC","config":"EH4"},"workload":"CG"}`, http.StatusNotFound, CodeUnknownDesign},
		{"unknown config", `{"design":"4LC/EH99","workload":"CG"}`, http.StatusNotFound, CodeUnknownDesign},
		{"bad path shape", `{"design":"4LC","workload":"CG"}`, http.StatusBadRequest, CodeInvalidRequest},
		{"unknown llc", `{"design":"4LC/EH4/XPoint","workload":"CG"}`, http.StatusBadRequest, CodeUnknownTech},
		{"nvm on 4LC", `{"design":{"family":"4LC","config":"EH4","nvm":"PCM"},"workload":"CG"}`, http.StatusBadRequest, CodeInvalidRequest},
		{"bad scale", `{"design":"4LC/EH4","workload":"CG","scale":48}`, http.StatusBadRequest, CodeInvalidRequest},
		{"scale too big", `{"design":"4LC/EH4","workload":"CG","scale":128}`, http.StatusBadRequest, CodeInvalidRequest},
		{"bad workload scale", `{"design":"4LC/EH4","workload":"CG","workload_scale":1000}`, http.StatusBadRequest, CodeInvalidRequest},
		{"bad metric", `{"design":"4LC/EH4","workload":"CG","metrics":["speed"]}`, http.StatusBadRequest, CodeInvalidRequest},
		{"custom without spec", `{"design":{"family":"custom"},"workload":"CG"}`, http.StatusBadRequest, CodeInvalidRequest},
		{"custom bad tech", `{"design":{"family":"custom","custom":{"memory":{"tech":"flux"}}},"workload":"CG"}`, http.StatusBadRequest, CodeUnknownTech},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, decoded := post(t, ts, tc.body)
			if resp.StatusCode != tc.status {
				t.Fatalf("status = %d, want %d (%v)", resp.StatusCode, tc.status, decoded)
			}
			if code := errorCode(t, decoded); code != tc.wantCode {
				t.Fatalf("code = %q, want %q", code, tc.wantCode)
			}
		})
	}
}

// TestCacheHitVsMiss is the headline cache assertion: a repeated identical
// request must be served from the cache without any boundary replay. The
// speedup is asserted by replay-count instrumentation, not wall clock: the
// miss replays the full boundary stream (well over 100 references), the
// hit replays zero, so the hit does at least 100× less simulation work.
func TestCacheHitVsMiss(t *testing.T) {
	_, ev, ts := newTestServer(t, Config{})
	body := testBody("4LC/EH4")

	resp1, res1 := post(t, ts, body)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("miss status = %d (%v)", resp1.StatusCode, res1)
	}
	if got := resp1.Header.Get("X-Memsimd-Cache"); got != "miss" {
		t.Fatalf("first request cache header = %q, want miss", got)
	}
	if ev.Replays() != 1 {
		t.Fatalf("miss replays = %d, want 1", ev.Replays())
	}
	missRefs := ev.ReplayedRefs()
	if missRefs < 100 {
		t.Fatalf("boundary replay covered only %d refs; cache speedup claim needs >= 100", missRefs)
	}

	resp2, res2 := post(t, ts, body)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("hit status = %d", resp2.StatusCode)
	}
	if got := resp2.Header.Get("X-Memsimd-Cache"); got != "hit" {
		t.Fatalf("second request cache header = %q, want hit", got)
	}
	if ev.Replays() != 1 || ev.ReplayedRefs() != missRefs {
		t.Fatalf("cache hit triggered replay work: replays=%d refs=%d", ev.Replays(), ev.ReplayedRefs())
	}
	if !bytesEqualJSON(res1, res2) {
		t.Fatalf("hit body differs from miss body:\n%v\n%v", res1, res2)
	}
	if resp1.Header.Get("X-Memsimd-Key") == "" ||
		resp1.Header.Get("X-Memsimd-Key") != resp2.Header.Get("X-Memsimd-Key") {
		t.Fatalf("cache keys differ: %q vs %q",
			resp1.Header.Get("X-Memsimd-Key"), resp2.Header.Get("X-Memsimd-Key"))
	}
}

// bytesEqualJSON compares two decoded JSON values structurally.
func bytesEqualJSON(a, b map[string]any) bool {
	ab, _ := json.Marshal(a)
	bb, _ := json.Marshal(b)
	return bytes.Equal(ab, bb)
}

// TestEquivalentSpellingsShareCacheEntry: the path and object spellings of
// the same design point, with and without explicit defaults, hash to one
// cache key.
func TestEquivalentSpellingsShareCacheEntry(t *testing.T) {
	_, ev, ts := newTestServer(t, Config{})
	spellings := []string{
		testBody("NMM/N6"),
		testBody("NMM/N6/PCM"),
		fmt.Sprintf(`{"design":{"family":"NMM","config":"N6","nvm":"PCM"},"workload":"CG","scale":%d,"workload_scale":%d}`,
			testScale, testWScale),
	}
	for i, body := range spellings {
		resp, decoded := post(t, ts, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("spelling %d: status %d (%v)", i, resp.StatusCode, decoded)
		}
	}
	if ev.Replays() != 1 {
		t.Fatalf("equivalent spellings replayed %d times, want 1", ev.Replays())
	}
}

// TestServerMatchesHarness asserts the acceptance criterion that memsimd's
// numbers match what the exp harness (and therefore paperrepro) computes
// for the same configuration.
func TestServerMatchesHarness(t *testing.T) {
	_, _, ts := newTestServer(t, Config{})
	resp, decoded := post(t, ts, testBody("4LC/EH4"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d (%v)", resp.StatusCode, decoded)
	}
	got := decoded["metrics"].(map[string]any)

	w, err := catalog.New("CG", workload.Options{Scale: testWScale})
	if err != nil {
		t.Fatal(err)
	}
	wp, err := exp.ProfileWorkloadOpts(context.Background(), w, exp.ProfileOptions{Scale: testScale, Dilution: exp.DefaultDilution})
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := design.EHByName("EH4")
	if err != nil {
		t.Fatal(err)
	}
	want, err := wp.Evaluate(design.DefaultRegistry().FourLCWith(cfg, tech.EDRAM, testScale, wp.Footprint))
	if err != nil {
		t.Fatal(err)
	}
	checks := map[string]float64{
		"amat_ns":     want.AMATNanos,
		"runtime_sec": want.RuntimeSec,
		"total_j":     want.TotalJ,
		"edp":         want.EDP,
		"norm_time":   want.NormTime,
		"norm_energy": want.NormEnergy,
		"norm_edp":    want.NormEDP,
	}
	for name, wantV := range checks {
		gotV, ok := got[name].(float64)
		if !ok {
			t.Fatalf("metric %s missing from response", name)
		}
		if math.Abs(gotV-wantV) > 1e-9*math.Max(1, math.Abs(wantV)) {
			t.Errorf("metric %s = %g, server diverges from harness %g", name, gotV, wantV)
		}
	}
	if decoded["design"] != "4LC/EH4/eDRAM" {
		t.Errorf("design label = %v", decoded["design"])
	}
}

// TestConcurrentIdenticalRequestsCollapse: N simultaneous identical
// requests must trigger exactly one replay; followers share the leader's
// result.
func TestConcurrentIdenticalRequestsCollapse(t *testing.T) {
	_, ev, ts := newTestServer(t, Config{MaxInFlight: 16})
	body := testBody("NMM/N3")
	const n = 8
	var wg sync.WaitGroup
	statuses := make([]int, n)
	caches := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/evaluate", "application/json", strings.NewReader(body))
			if err != nil {
				return
			}
			defer resp.Body.Close()
			statuses[i] = resp.StatusCode
			caches[i] = resp.Header.Get("X-Memsimd-Cache")
		}(i)
	}
	wg.Wait()
	var leaders int
	for i := 0; i < n; i++ {
		if statuses[i] != http.StatusOK {
			t.Fatalf("request %d status = %d", i, statuses[i])
		}
		switch caches[i] {
		case "miss":
			leaders++
		case "dedup", "hit":
		default:
			t.Fatalf("request %d cache header = %q", i, caches[i])
		}
	}
	if ev.Replays() != 1 {
		t.Fatalf("%d concurrent identical requests caused %d replays, want 1", n, ev.Replays())
	}
	if leaders != 1 {
		t.Fatalf("saw %d flight leaders, want 1", leaders)
	}
}

// stubRunner substitutes controllable evaluation behaviour.
type stubRunner struct {
	fn func(ctx context.Context, req *EvalRequest) (*EvalResult, error)
}

// Evaluate implements Runner.
func (s *stubRunner) Evaluate(ctx context.Context, req *EvalRequest) (*EvalResult, error) {
	return s.fn(ctx, req)
}

func TestBackpressure429(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	runner := &stubRunner{fn: func(ctx context.Context, req *EvalRequest) (*EvalResult, error) {
		close(started)
		<-release
		return &EvalResult{Key: req.Key(), Metrics: map[string]float64{}}, nil
	}}
	s := New(Config{Runner: runner, MaxInFlight: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer close(release)

	go http.Post(ts.URL+"/v1/evaluate", "application/json", strings.NewReader(testBody("4LC/EH1")))
	<-started

	resp, err := http.Post(ts.URL+"/v1/evaluate", "application/json", strings.NewReader(testBody("4LC/EH2")))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After header")
	}
	var decoded map[string]any
	json.NewDecoder(resp.Body).Decode(&decoded)
	if code := errorCode(t, decoded); code != CodeOverloaded {
		t.Fatalf("code = %q, want %q", code, CodeOverloaded)
	}
}

func TestRequestTimeoutAbortsEvaluation(t *testing.T) {
	runner := &stubRunner{fn: func(ctx context.Context, req *EvalRequest) (*EvalResult, error) {
		<-ctx.Done() // model a replay noticing cancellation
		return nil, ctx.Err()
	}}
	s := New(Config{Runner: runner, Timeout: 30 * time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/evaluate", "application/json", strings.NewReader(testBody("4LC/EH1")))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", resp.StatusCode)
	}
	var decoded map[string]any
	json.NewDecoder(resp.Body).Decode(&decoded)
	if code := errorCode(t, decoded); code != CodeTimeout {
		t.Fatalf("code = %q, want %q", code, CodeTimeout)
	}
}

func TestShutdownDrainsActiveRequests(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{})
	runner := &stubRunner{fn: func(ctx context.Context, req *EvalRequest) (*EvalResult, error) {
		close(started)
		<-release
		return &EvalResult{Key: req.Key(), Metrics: map[string]float64{"norm_time": 1}}, nil
	}}
	s := New(Config{Runner: runner})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	type result struct {
		status int
		err    error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/evaluate", "application/json", strings.NewReader(testBody("4LC/EH3")))
		if err != nil {
			done <- result{err: err}
			return
		}
		resp.Body.Close()
		done <- result{status: resp.StatusCode}
	}()
	<-started

	s.BeginShutdown()

	// New work is refused while draining.
	resp, err := http.Post(ts.URL+"/v1/evaluate", "application/json", strings.NewReader(testBody("4LC/EH4")))
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	json.NewDecoder(resp.Body).Decode(&decoded)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining status = %d, want 503", resp.StatusCode)
	}
	if code := errorCode(t, decoded); code != CodeShuttingDown {
		t.Fatalf("code = %q, want %q", code, CodeShuttingDown)
	}

	// Drain must wait for the in-flight request...
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); err == nil {
		t.Fatal("Drain returned before the active request finished")
	}
	// ...and complete once it finishes, with the client getting a 200.
	close(release)
	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := s.Drain(ctx2); err != nil {
		t.Fatalf("Drain after release: %v", err)
	}
	r := <-done
	if r.err != nil || r.status != http.StatusOK {
		t.Fatalf("draining request finished with status=%d err=%v, want 200", r.status, r.err)
	}
}

func TestReadyzAndHealthz(t *testing.T) {
	s, _, ts := newTestServer(t, Config{})
	get := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := get("/healthz"); got != http.StatusOK {
		t.Fatalf("healthz = %d", got)
	}
	if got := get("/readyz"); got != http.StatusOK {
		t.Fatalf("readyz = %d", got)
	}
	s.SetReady(false)
	if got := get("/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("readyz while not ready = %d", got)
	}
	s.SetReady(true)
	s.BeginShutdown()
	if got := get("/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining = %d", got)
	}
	if got := get("/healthz"); got != http.StatusOK {
		t.Fatalf("healthz while draining = %d (liveness must stay 200)", got)
	}
}

func TestListEndpoints(t *testing.T) {
	_, _, ts := newTestServer(t, Config{})
	for path, want := range map[string]string{
		"/v1/workloads": "Graph500",
		"/v1/designs":   "EH4",
		"/metrics":      "memsimd_cache_hit_ratio",
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s = %d", path, resp.StatusCode)
		}
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("%s response does not mention %q", path, want)
		}
	}
	// /metrics is the only metric surface; /debug/vars is not served.
	resp, err := http.Get(ts.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/debug/vars = %d, want 404", resp.StatusCode)
	}
}

func TestReferenceDesignNeedsNoReplay(t *testing.T) {
	_, ev, ts := newTestServer(t, Config{})
	resp, decoded := post(t, ts, testBody("reference"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d (%v)", resp.StatusCode, decoded)
	}
	if ev.Replays() != 0 {
		t.Fatalf("reference evaluation replayed %d times, want 0", ev.Replays())
	}
	m := decoded["metrics"].(map[string]any)
	if m["norm_time"].(float64) != 1 || m["norm_edp"].(float64) != 1 {
		t.Fatalf("reference norms = %v, want 1", m)
	}
}

func TestMetricFilterSharesCacheEntry(t *testing.T) {
	_, ev, ts := newTestServer(t, Config{})
	filtered := fmt.Sprintf(`{"design":"4LC/EH6","workload":"CG","scale":%d,"workload_scale":%d,"metrics":["norm_time"]}`,
		testScale, testWScale)
	resp, decoded := post(t, ts, filtered)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d (%v)", resp.StatusCode, decoded)
	}
	m := decoded["metrics"].(map[string]any)
	if len(m) != 1 {
		t.Fatalf("filtered metrics = %v, want exactly norm_time", m)
	}
	// The unfiltered spelling of the same evaluation is a cache hit.
	resp2, decoded2 := post(t, ts, testBody("4LC/EH6"))
	if got := resp2.Header.Get("X-Memsimd-Cache"); got != "hit" {
		t.Fatalf("unfiltered request after filtered = %q, want hit", got)
	}
	if len(decoded2["metrics"].(map[string]any)) != len(MetricNames) {
		t.Fatalf("unfiltered metrics = %v", decoded2["metrics"])
	}
	if ev.Replays() != 1 {
		t.Fatalf("replays = %d, want 1", ev.Replays())
	}
}

func TestCustomHierarchyEvaluates(t *testing.T) {
	_, _, ts := newTestServer(t, Config{})
	body := fmt.Sprintf(`{
		"design": {"family":"custom","custom":{
			"name":"sttram-l4",
			"caches":[{"tech":"STTRAM","size_bytes":262144,"line_bytes":512}],
			"memory":{"tech":"DRAM"}}},
		"workload":"CG","scale":%d,"workload_scale":%d}`, testScale, testWScale)
	resp, decoded := post(t, ts, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d (%v)", resp.StatusCode, decoded)
	}
	if decoded["design"] != "custom/sttram-l4" {
		t.Fatalf("design label = %v", decoded["design"])
	}
	m := decoded["metrics"].(map[string]any)
	if m["norm_time"].(float64) <= 0 {
		t.Fatalf("norm_time = %v", m["norm_time"])
	}
}
