package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"hybridmem/internal/obs"
)

// syncBuffer is a goroutine-safe bytes.Buffer for capturing run logs.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) lines(t *testing.T) []map[string]any {
	t.Helper()
	b.mu.Lock()
	raw := b.buf.String()
	b.mu.Unlock()
	var out []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(raw), "\n") {
		if line == "" {
			continue
		}
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("invalid JSONL line %q: %v", line, err)
		}
		out = append(out, rec)
	}
	return out
}

// TestMetricsEndpoint drives a hit, a miss, and an invalid request through
// the server and asserts the Prometheus exposition carries the
// outcome-labeled latency histogram (>= 3 outcomes) plus the cache gauge
// and the negative-entry counters.
func TestMetricsEndpoint(t *testing.T) {
	_, _, ts := newTestServer(t, Config{})

	if resp, _ := post(t, ts, testBody("4LC/EH1")); resp.StatusCode != http.StatusOK {
		t.Fatalf("miss request: status %d", resp.StatusCode)
	}
	if resp, _ := post(t, ts, testBody("4LC/EH1")); resp.StatusCode != http.StatusOK {
		t.Fatalf("hit request: status %d", resp.StatusCode)
	}
	if resp, _ := post(t, ts, `{"workload":"CG"}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid request: status %d", resp.StatusCode)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)

	for _, outcome := range []string{"hit", "miss", "invalid"} {
		if !strings.Contains(text, `memsimd_request_seconds_count{outcome="`+outcome+`"}`) {
			t.Errorf("/metrics missing outcome %q:\n%s", outcome, firstLines(text, 40))
		}
	}
	for _, want := range []string{
		"# TYPE memsimd_request_seconds histogram",
		`memsimd_request_seconds_bucket{outcome="hit",le="+Inf"}`,
		"# TYPE memsimd_cache_hit_ratio gauge",
		"memsimd_negative_hits",
		"memsimd_requests_total",
		"memsimd_replay_refs_total",
		"hybridmem_fan_width",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// firstLines trims exposition output for readable failures.
func firstLines(s string, n int) string {
	lines := strings.SplitN(s, "\n", n+1)
	if len(lines) > n {
		lines = lines[:n]
	}
	return strings.Join(lines, "\n")
}

// TestTraceIDPropagation pins a client trace ID and requires every run-log
// event the evaluation produced — including the exp layer's design_point —
// to carry it, with the http_request event closing the trace.
func TestTraceIDPropagation(t *testing.T) {
	var buf syncBuffer
	log := obs.NewLogger(&buf)
	ev := NewEvaluator(0, log)
	s := New(Config{Runner: ev, Log: log})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	const traceID = "feedface12345678"
	req, err := http.NewRequest("POST", ts.URL+"/v1/evaluate", strings.NewReader(testBody("NMM/N6")))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Trace-Id", traceID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Memsimd-Trace"); got != traceID {
		t.Fatalf("X-Memsimd-Trace = %q, want pinned %q", got, traceID)
	}

	events := map[string]bool{}
	for _, rec := range buf.lines(t) {
		ev, _ := rec["event"].(string)
		if tid, ok := rec["trace_id"].(string); ok && tid == traceID {
			events[ev] = true
		} else if ev == "design_point" || ev == "http_request" {
			t.Errorf("%s event lost the trace: %v", ev, rec)
		}
	}
	for _, want := range []string{"design_point", "http_request"} {
		if !events[want] {
			t.Errorf("no %s event carried trace %s (saw %v)", want, traceID, events)
		}
	}
}

// TestStageBreakdownCoversWallTime requires a cache-miss request's logged
// stage breakdown to account for at least 90% of its wall time — the
// acceptance bound for the stage attribution model.
func TestStageBreakdownCoversWallTime(t *testing.T) {
	var buf syncBuffer
	log := obs.NewLogger(&buf)
	ev := NewEvaluator(0, log)
	s := New(Config{Runner: ev, Log: log})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	if resp, _ := post(t, ts, testBody("NMM/N1")); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}

	var reqEvent map[string]any
	for _, rec := range buf.lines(t) {
		if rec["event"] == "http_request" && rec["outcome"] == "miss" {
			reqEvent = rec
		}
	}
	if reqEvent == nil {
		t.Fatal("no http_request event with outcome=miss")
	}
	wall, _ := reqEvent["wall_ms"].(float64)
	stages, ok := reqEvent["stages"].(map[string]any)
	if !ok {
		t.Fatalf("http_request carries no stage breakdown: %v", reqEvent)
	}
	for _, want := range []string{"validate", "cache_lookup", "profile", "decode", "replay"} {
		if _, ok := stages[want]; !ok {
			t.Errorf("stage breakdown missing %q: %v", want, stages)
		}
	}
	var sum float64
	for _, v := range stages {
		if f, ok := v.(float64); ok {
			sum += f
		}
	}
	if wall <= 0 {
		t.Fatalf("wall_ms = %v", wall)
	}
	if cov := sum / wall; cov < 0.90 || cov > 1.10 {
		t.Errorf("stages cover %.1f%% of wall time (%v of %v ms), want within 10%%: %v",
			cov*100, sum, wall, stages)
	}
}

// TestDedupFollowerRecordsSingleflightWait asserts a deduplicated follower
// logs its wait rather than the leader's replay stages.
func TestDedupFollowerRecordsSingleflightWait(t *testing.T) {
	var buf syncBuffer
	log := obs.NewLogger(&buf)
	ev := NewEvaluator(0, log)
	s := New(Config{Runner: ev, Log: log})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	body := testBody("NMM/N2")
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/evaluate", "application/json", strings.NewReader(body))
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()

	sawDedup := false
	for _, rec := range buf.lines(t) {
		if rec["event"] != "http_request" || rec["outcome"] != "dedup" {
			continue
		}
		sawDedup = true
		stages, _ := rec["stages"].(map[string]any)
		if _, ok := stages["singleflight_wait"]; !ok {
			t.Errorf("dedup follower missing singleflight_wait: %v", rec)
		}
		if _, ok := stages["replay"]; ok {
			t.Errorf("dedup follower charged with the leader's replay: %v", rec)
		}
	}
	if !sawDedup {
		t.Skip("no request deduplicated this run (timing-dependent); nothing to assert")
	}
}
