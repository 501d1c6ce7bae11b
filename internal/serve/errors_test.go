package serve

import (
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestWriteErrorRetryAfterRounding pins the Retry-After header contract:
// RetryAfterMS rounds UP to whole seconds (a client honoring the header
// never retries before the advertised millisecond delay), and the
// RetryAfterMS==0 fallback stamps "1" for the overload-family codes so
// generic HTTP clients always get backoff guidance on a 429.
func TestWriteErrorRetryAfterRounding(t *testing.T) {
	cases := []struct {
		name string
		err  *APIError
		want string // "" = no Retry-After header
	}{
		{"1ms rounds to 1s", &APIError{Code: CodeShuttingDown, RetryAfterMS: 1}, "1"},
		{"999ms rounds to 1s", &APIError{Code: CodeShuttingDown, RetryAfterMS: 999}, "1"},
		{"1000ms is exactly 1s", &APIError{Code: CodeShuttingDown, RetryAfterMS: 1000}, "1"},
		{"1001ms rounds to 2s", &APIError{Code: CodeShuttingDown, RetryAfterMS: 1001}, "2"},
		{"2500ms rounds to 3s", &APIError{Code: CodeShuttingDown, RetryAfterMS: 2500}, "3"},
		{"overloaded fallback", &APIError{Code: CodeOverloaded}, "1"},
		{"rate_limited fallback", &APIError{Code: CodeRateLimited}, "1"},
		{"no guidance, no header", &APIError{Code: CodeInvalidRequest}, ""},
		{"panic: no header", &APIError{Code: CodePanic}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			writeError(rec, tc.err)
			if got := rec.Header().Get("Retry-After"); got != tc.want {
				t.Fatalf("Retry-After = %q, want %q", got, tc.want)
			}
			if rec.Code != httpStatus(tc.err.Code) {
				t.Fatalf("status = %d, want %d", rec.Code, httpStatus(tc.err.Code))
			}
			var decoded struct {
				Error *APIError `json:"error"`
			}
			if err := json.NewDecoder(rec.Body).Decode(&decoded); err != nil || decoded.Error == nil {
				t.Fatalf("body did not decode to a typed error: %v", err)
			}
			if decoded.Error.Code != tc.err.Code {
				t.Fatalf("body code = %q, want %q", decoded.Error.Code, tc.err.Code)
			}
		})
	}
}

// TestBackoffJitterBounds is the client retry contract as a property: for
// any retryable APIError and any draw, the computed sleep stays within
// [RetryAfterMS, RetryAfterMS+JitterMS).
func TestBackoffJitterBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(9)) // seeded: failures reproduce
	errs := []*APIError{
		{Code: CodeOverloaded, RetryAfterMS: 1000, JitterMS: 500},
		{Code: CodeRateLimited, RetryAfterMS: 200, JitterMS: 100},
		{Code: CodeInternal, RetryAfterMS: 1000, JitterMS: 500}, // transient fault
		{Code: CodeShuttingDown, RetryAfterMS: drainRetryAfterMS, JitterMS: drainRetryAfterMS / 2},
		{Code: CodeInternal, RetryAfterMS: 1, JitterMS: 0}, // zero jitter: exact sleep
	}
	for _, e := range errs {
		lo := time.Duration(e.RetryAfterMS) * time.Millisecond
		hi := time.Duration(e.RetryAfterMS+e.JitterMS) * time.Millisecond
		for i := 0; i < 2000; i++ {
			d := e.Backoff(rng.Float64())
			if d < lo || (e.JitterMS > 0 && d >= hi) || (e.JitterMS == 0 && d != lo) {
				t.Fatalf("%s: Backoff = %v outside [%v, %v)", e.Code, d, lo, hi)
			}
		}
		// Boundary draws clamp into range instead of escaping it.
		if d := e.Backoff(0); d != lo {
			t.Fatalf("%s: Backoff(0) = %v, want %v", e.Code, d, lo)
		}
		if d := e.Backoff(1); e.JitterMS > 0 && (d < lo || d >= hi) {
			t.Fatalf("%s: Backoff(1) = %v outside [%v, %v)", e.Code, d, lo, hi)
		}
	}
}

// TestRetryableCodesCarryGuidance walks every server path that emits a
// retryable refusal and asserts the response carries both RetryAfterMS and
// a Retry-After header, so the jitter property above applies to real
// responses, not just hand-built ones.
func TestRetryableCodesCarryGuidance(t *testing.T) {
	// Drain refusal: must be a retryable 503, not a connection reset.
	s := New(Config{Runner: &stubRunner{fn: func(ctx0 context.Context, req *EvalRequest) (*EvalResult, error) {
		return &EvalResult{Key: req.Key(), Metrics: map[string]float64{"norm_time": 1}}, nil
	}}})
	ts := newHTTPServer(t, s)
	s.BeginShutdown()
	resp, decoded := post(t, ts, testBody("4LC/EH1"))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining status = %d, want 503 (%v)", resp.StatusCode, decoded)
	}
	if code := errorCode(t, decoded); code != CodeShuttingDown {
		t.Fatalf("code = %q, want %q", code, CodeShuttingDown)
	}
	if resp.Header.Get("Retry-After") != "2" {
		t.Fatalf("Retry-After = %q, want %q (drainRetryAfterMS rounded up)", resp.Header.Get("Retry-After"), "2")
	}
	e, _ := decoded["error"].(map[string]any)
	if ms, _ := e["retry_after_ms"].(float64); int64(ms) != drainRetryAfterMS {
		t.Fatalf("retry_after_ms = %v, want %d", e["retry_after_ms"], drainRetryAfterMS)
	}
	if _, ok := e["jitter_ms"].(float64); !ok {
		t.Fatalf("drain refusal carries no jitter_ms: %v", e)
	}
}
