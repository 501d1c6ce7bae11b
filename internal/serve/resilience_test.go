package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hybridmem/internal/fault"
)

func TestPanicRecoveryServesTypedError(t *testing.T) {
	var calls atomic.Int64
	runner := &stubRunner{fn: func(ctx context.Context, req *EvalRequest) (*EvalResult, error) {
		if calls.Add(1) == 1 {
			panic("synthetic replay bug")
		}
		return &EvalResult{Key: req.Key(), Metrics: map[string]float64{"norm_time": 1}}, nil
	}}
	s := New(Config{Runner: runner})
	ts := newHTTPServer(t, s)
	panicsBefore := s.panics.Value()

	resp, decoded := post(t, ts, testBody("NMM/N1"))
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking evaluation status = %d, want 500 (%v)", resp.StatusCode, decoded)
	}
	if code := errorCode(t, decoded); code != CodePanic {
		t.Fatalf("code = %q, want %q", code, CodePanic)
	}
	if got := s.panics.Value() - panicsBefore; got != 1 {
		t.Fatalf("panics_recovered delta = %d, want 1", got)
	}

	// The panic is a property of the key: the repeat is answered from the
	// negative entry with the same typed error, without evaluating again.
	resp, decoded = post(t, ts, testBody("NMM/N1"))
	if resp.StatusCode != http.StatusInternalServerError || errorCode(t, decoded) != CodePanic {
		t.Fatalf("repeat status = %d (%v), want the remembered 500 %s", resp.StatusCode, decoded, CodePanic)
	}
	if got := resp.Header.Get("X-Memsimd-Cache"); got != "negative" {
		t.Fatalf("repeat X-Memsimd-Cache = %q, want negative", got)
	}
	if calls.Load() != 1 {
		t.Fatalf("runner called %d times, want 1 (repeat re-evaluated a poisoned key)", calls.Load())
	}

	// The process survived; the next design evaluates fine.
	resp2, decoded2 := post(t, ts, testBody("NMM/N2"))
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("post-panic status = %d, want 200 (%v)", resp2.StatusCode, decoded2)
	}
}

// TestTransientFailuresRetryToSuccess: a transient fault is never
// remembered, so a client retrying after the advertised backoff reaches the
// evaluator again and eventually succeeds. The server does not retry
// evaluations itself: each request is one attempt.
func TestTransientFailuresRetryToSuccess(t *testing.T) {
	var calls atomic.Int64
	runner := &stubRunner{fn: func(ctx context.Context, req *EvalRequest) (*EvalResult, error) {
		if calls.Add(1) <= 2 {
			return nil, fault.Transient("replay", nil)
		}
		return &EvalResult{Key: req.Key(), Metrics: map[string]float64{"norm_time": 1}}, nil
	}}
	s := New(Config{Runner: runner})
	ts := newHTTPServer(t, s)
	negativeBefore := s.negativeEntries.Value()

	for attempt := 1; attempt <= 2; attempt++ {
		resp, decoded := post(t, ts, testBody("NMM/N2"))
		if resp.StatusCode != http.StatusInternalServerError || errorCode(t, decoded) != CodeInternal {
			t.Fatalf("attempt %d: status = %d (%v), want 500 %s", attempt, resp.StatusCode, decoded, CodeInternal)
		}
		if calls.Load() != int64(attempt) {
			t.Fatalf("attempt %d: runner called %d times; the server retried or remembered a transient",
				attempt, calls.Load())
		}
	}
	resp, decoded := post(t, ts, testBody("NMM/N2"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("third attempt status = %d, want 200 (%v)", resp.StatusCode, decoded)
	}
	if got := s.negativeEntries.Value() - negativeBefore; got != 0 {
		t.Fatalf("transient faults created %d negative entries, want 0", got)
	}
}

// TestTransientExhaustionCarriesRetryGuidance: the one server-side attempt
// a transient fault gets ends in a 500 with retry guidance, which is what
// tells a client it may come back.
func TestTransientExhaustionCarriesRetryGuidance(t *testing.T) {
	runner := &stubRunner{fn: func(ctx context.Context, req *EvalRequest) (*EvalResult, error) {
		return nil, fault.Transient("replay", nil)
	}}
	s := New(Config{Runner: runner})
	ts := newHTTPServer(t, s)

	resp, decoded := post(t, ts, testBody("NMM/N3"))
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", resp.StatusCode)
	}
	if code := errorCode(t, decoded); code != CodeInternal {
		t.Fatalf("code = %q, want %q", code, CodeInternal)
	}
	e := decoded["error"].(map[string]any)
	if e["retry_after_ms"].(float64) <= 0 || e["jitter_ms"].(float64) <= 0 {
		t.Fatalf("transient failure lacks retry guidance: %v", e)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("transient failure without Retry-After header")
	}
	if got := resp.Header.Get("X-Memsimd-Cache"); got == "negative" {
		t.Fatal("a transient failure was answered from a negative entry")
	}
}

// TestNegativeEntryAnswersRepeatsUntilTTL pins negative entries: a
// permanent failure is remembered under its key for NegativeTTL, repeats
// get a byte-identical typed error without an evaluation, other keys of
// the same design are unaffected, and after the TTL the key is evaluated
// once more.
func TestNegativeEntryAnswersRepeatsUntilTTL(t *testing.T) {
	var failing atomic.Bool
	failing.Store(true)
	var calls atomic.Int64
	runner := &stubRunner{fn: func(ctx context.Context, req *EvalRequest) (*EvalResult, error) {
		calls.Add(1)
		if failing.Load() && req.Iters == 0 {
			return nil, fmt.Errorf("device model exploded")
		}
		return &EvalResult{Key: req.Key(), Metrics: map[string]float64{"norm_time": 1}}, nil
	}}
	var clock atomic.Int64 // unix nanos
	s := New(Config{Runner: runner})
	s.cache.now = func() time.Time { return time.Unix(0, clock.Load()) }
	ts := newHTTPServer(t, s)
	storedBefore, hitsBefore := s.negativeEntries.Value(), s.negativeHits.Value()
	body := testBody("NMM/N4")

	rawPost := func(body string) (*http.Response, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/evaluate", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, string(b)
	}
	first, firstBody := rawPost(body)
	if first.StatusCode != http.StatusInternalServerError || !strings.Contains(firstBody, CodeInternal) {
		t.Fatalf("failure status = %d body %s", first.StatusCode, firstBody)
	}
	for i := 0; i < 3; i++ {
		resp, repeat := rawPost(body)
		if resp.StatusCode != http.StatusInternalServerError || repeat != firstBody {
			t.Fatalf("repeat %d: status %d body %s, want the remembered %s", i, resp.StatusCode, repeat, firstBody)
		}
		if got := resp.Header.Get("X-Memsimd-Cache"); got != "negative" {
			t.Fatalf("repeat %d: X-Memsimd-Cache = %q, want negative", i, got)
		}
	}
	if calls.Load() != 1 {
		t.Fatalf("runner called %d times, want 1", calls.Load())
	}
	if d := s.negativeEntries.Value() - storedBefore; d != 1 {
		t.Fatalf("negative_entries_total delta = %d, want 1", d)
	}
	if d := s.negativeHits.Value() - hitsBefore; d != 3 {
		t.Fatalf("negative_hits delta = %d, want 3", d)
	}

	// The entry is per key, not per design: the same design with other
	// parameters evaluates normally.
	other := fmt.Sprintf(`{"design":"NMM/N4","workload":"CG","scale":%d,"workload_scale":%d,"iters":2}`,
		testScale, testWScale)
	if resp, decoded := post(t, ts, other); resp.StatusCode != http.StatusOK {
		t.Fatalf("other key of the failing design: %d (%v)", resp.StatusCode, decoded)
	}

	// After the TTL the key is evaluated once more; the fresh result
	// replaces the negative entry.
	failing.Store(false)
	clock.Store(int64(NegativeTTL))
	calls.Store(0)
	for i := 0; i < 2; i++ {
		if resp, decoded := post(t, ts, body); resp.StatusCode != http.StatusOK {
			t.Fatalf("post-TTL request %d status = %d, want 200 (%v)", i, resp.StatusCode, decoded)
		}
	}
	if calls.Load() != 1 {
		t.Fatalf("post-TTL runner calls = %d, want 1 (evaluate once, then hit)", calls.Load())
	}
}

// TestUnnamedCustomDesignsFailIndependently: negative entries are keyed by
// the whole request, so a failing unnamed custom design cannot refuse a
// different unnamed custom design, although both carry the design label
// "custom/custom".
func TestUnnamedCustomDesignsFailIndependently(t *testing.T) {
	var calls atomic.Int64
	runner := &stubRunner{fn: func(ctx context.Context, req *EvalRequest) (*EvalResult, error) {
		calls.Add(1)
		if req.Design.Custom.Caches[0].SizeBytes == 65536 {
			return nil, fmt.Errorf("replay exploded")
		}
		return &EvalResult{Key: req.Key(), Metrics: map[string]float64{"norm_time": 1}}, nil
	}}
	ts := newHTTPServer(t, New(Config{Runner: runner}))
	custom := func(size int) string {
		return fmt.Sprintf(`{"design":{"family":"custom","custom":{"caches":[{"tech":"eDRAM","size_bytes":%d,"line_bytes":4096}],"memory":{"tech":"PCM"}}},"workload":"CG","scale":%d,"workload_scale":%d}`,
			size, testScale, testWScale)
	}
	for i := 0; i < 6; i++ {
		if resp, decoded := post(t, ts, custom(65536)); resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("failing custom design request %d: %d (%v)", i, resp.StatusCode, decoded)
		}
	}
	if resp, decoded := post(t, ts, custom(131072)); resp.StatusCode != http.StatusOK {
		t.Fatalf("another unnamed custom design: %d (%v)", resp.StatusCode, decoded)
	}
	if calls.Load() != 2 {
		t.Fatalf("runner calls = %d, want 2 (one per distinct key)", calls.Load())
	}
}

// TestNeutralOutcomesAreNotRemembered: outcomes that say nothing about the
// key — backpressure and a deadline — never become negative entries, so
// the next request for the key is evaluated and succeeds.
func TestNeutralOutcomesAreNotRemembered(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	var slowOnce atomic.Bool
	runner := &stubRunner{fn: func(ctx context.Context, req *EvalRequest) (*EvalResult, error) {
		switch {
		case strings.Contains(req.Design.Config, "N8"):
			close(started)
			<-release
		case strings.Contains(req.Design.Config, "N7") && slowOnce.CompareAndSwap(false, true):
			<-ctx.Done()
			return nil, ctx.Err()
		}
		return &EvalResult{Key: req.Key(), Metrics: map[string]float64{"norm_time": 1}}, nil
	}}
	s := New(Config{Runner: runner, MaxInFlight: 1})
	s.estimate = func() time.Duration { return 0 } // never shed on the deadline
	ts := newHTTPServer(t, s)
	storedBefore := s.negativeEntries.Value()

	// A deadline: 504, then the same key evaluates.
	short := map[string]string{deadlineHeader: "50"}
	if resp, decoded := postWith(t, ts, testBody("NMM/N7"), short); resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("slow evaluation status = %d, want 504 (%v)", resp.StatusCode, decoded)
	}
	if resp, decoded := post(t, ts, testBody("NMM/N7")); resp.StatusCode != http.StatusOK {
		t.Fatalf("after timeout status = %d, want 200 (%v)", resp.StatusCode, decoded)
	}

	// Backpressure: occupy the only evaluation slot, get a 429, free the
	// slot, and the same key evaluates.
	blocked := make(chan struct{})
	go func() {
		defer close(blocked)
		resp, err := http.Post(ts.URL+"/v1/evaluate", "application/json",
			strings.NewReader(testBody("NMM/N8")))
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-started
	bad := testBody("NMM/N9")
	if resp, decoded := post(t, ts, bad); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("request under backpressure status = %d, want 429 (%v)", resp.StatusCode, decoded)
	}
	close(release)
	<-blocked
	if resp, decoded := post(t, ts, bad); resp.StatusCode != http.StatusOK {
		t.Fatalf("after backpressure status = %d, want 200 (%v)", resp.StatusCode, decoded)
	}
	if d := s.negativeEntries.Value() - storedBefore; d != 0 {
		t.Fatalf("neutral outcomes created %d negative entries, want 0", d)
	}
}

func TestFaultSpecValidation(t *testing.T) {
	_, _, ts := newTestServer(t, Config{})
	cases := []struct {
		name     string
		body     string
		wantCode string
	}{
		{"fault on reference", `{"design":"reference","workload":"CG","fault":{"seed":1}}`, CodeInvalidRequest},
		{"ber out of range", testFaultBody("NMM/N1", `{"seed":1,"bit_error_rate":1.5}`), CodeInvalidRequest},
		{"negative ber", testFaultBody("NMM/N1", `{"seed":1,"bit_error_rate":-0.1}`), CodeInvalidRequest},
		{"bad page size", testFaultBody("NMM/N1", `{"seed":1,"page_bytes":100}`), CodeInvalidRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, decoded := post(t, ts, tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400 (%v)", resp.StatusCode, decoded)
			}
			if code := errorCode(t, decoded); code != tc.wantCode {
				t.Fatalf("code = %q, want %q", code, tc.wantCode)
			}
		})
	}
}

// testFaultBody builds an evaluate body with a fault-injection spec.
func testFaultBody(designPath, faultJSON string) string {
	return fmt.Sprintf(`{"design":%q,"workload":"CG","scale":%d,"workload_scale":%d,"fault":%s}`,
		designPath, testScale, testWScale, faultJSON)
}

func TestFaultMetricsDeterministicInResponses(t *testing.T) {
	body := testFaultBody("NMM/N1", `{"seed":11,"bit_error_rate":1e-6,"endurance_writes":3000}`)

	run := func() map[string]any {
		_, _, ts := newTestServer(t, Config{})
		resp, decoded := post(t, ts, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d (%v)", resp.StatusCode, decoded)
		}
		return decoded["metrics"].(map[string]any)
	}
	m1 := run()
	m2 := run()

	if m1["fault_corrected"].(float64) <= 0 {
		t.Fatalf("fault-injected response reports no corrections: %v", m1)
	}
	for _, k := range []string{"fault_corrected", "fault_uncorrected", "fault_stuck_lines",
		"fault_retired_pages", "fault_remapped"} {
		if m1[k] != m2[k] {
			t.Fatalf("same-seed servers disagree on %s: %v vs %v", k, m1[k], m2[k])
		}
	}

	// Fault injection changes the cache key: the same design without a
	// fault spec is a distinct, zero-fault result.
	_, _, ts := newTestServer(t, Config{})
	if _, decoded := post(t, ts, body); decoded == nil {
		t.Fatal("warm request failed")
	}
	resp, decoded := post(t, ts, testBody("NMM/N1"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plain request status = %d", resp.StatusCode)
	}
	plain := decoded["metrics"].(map[string]any)
	if plain["fault_corrected"].(float64) != 0 {
		t.Fatalf("uninjected evaluation reports fault corrections: %v", plain)
	}
}

// newHTTPServer mounts an already-built Server on a test listener.
func newHTTPServer(t *testing.T, s *Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// TestDrainRacesWithPanickingEvaluations drives concurrent evaluations —
// some panicking — against BeginShutdown/Drain under the race detector. The
// assertion is structural: every request gets a well-formed response, the
// drain completes, and the detector sees no data race.
func TestDrainRacesWithPanickingEvaluations(t *testing.T) {
	runner := &stubRunner{fn: func(ctx context.Context, req *EvalRequest) (*EvalResult, error) {
		time.Sleep(time.Millisecond)
		if strings.Contains(req.Design.Config, "N7") {
			panic("poisoned design")
		}
		return &EvalResult{Key: req.Key(), Metrics: map[string]float64{"norm_time": 1}}, nil
	}}
	s := New(Config{Runner: runner, MaxInFlight: 4})
	ts := newHTTPServer(t, s)

	bodies := []string{
		testBody("NMM/N1"), testBody("NMM/N7"), testBody("NMM/N2"),
		testBody("NMM/N7"), testBody("NMM/N3"),
	}
	var wg sync.WaitGroup
	for i := 0; i < 40; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/evaluate", "application/json",
				strings.NewReader(bodies[i%len(bodies)]))
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusOK, http.StatusInternalServerError,
				http.StatusTooManyRequests, http.StatusServiceUnavailable:
			default:
				t.Errorf("request %d: unexpected status %d", i, resp.StatusCode)
			}
		}(i)
		if i == 20 {
			s.BeginShutdown()
		}
	}
	wg.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain did not complete: %v", err)
	}
}

func FuzzParseEvalRequest(f *testing.F) {
	f.Add(testBody("4LC/EH4"))
	f.Add(testBody("NMM/N6/PCM"))
	f.Add(testFaultBody("NMM/N1", `{"seed":3,"bit_error_rate":1e-9,"endurance_writes":100,"page_bytes":4096}`))
	f.Add(`{"design":{"family":"custom","custom":{"name":"x","memory":{"tech":"DRAM"}}},"workload":"CG"}`)
	f.Add(`{"design":"refer`)
	f.Add(`{"design":"4LC/EH4","workload":"CG","scale":18446744073709551615}`)
	f.Add(`{"fault":{"bit_error_rate":1e308}}`)
	f.Fuzz(func(t *testing.T, body string) {
		var req EvalRequest
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			return
		}
		// Neither normalization nor key derivation may panic, whatever the
		// decoded shape.
		if apiErr := req.Normalize(); apiErr != nil {
			return
		}
		if req.Key() == "" {
			t.Fatal("normalized request produced an empty cache key")
		}
	})
}
