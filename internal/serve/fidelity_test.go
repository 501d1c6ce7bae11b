package serve

import (
	"fmt"
	"math"
	"net/http"
	"testing"

	"hybridmem/internal/analytic"
)

// fidelityBody is testBody plus an explicit fidelity selection.
func fidelityBody(designPath, fidelity string) string {
	return fmt.Sprintf(`{"design":%q,"workload":"CG","scale":%d,"workload_scale":%d,"fidelity":%q}`,
		designPath, testScale, testWScale, fidelity)
}

// TestAnalyticFidelity pins the fast-path serving contract: an analytic
// request answers with zero replay, within the analytic accuracy envelope
// of the exact answer, under a cache key the exact result does not share.
func TestAnalyticFidelity(t *testing.T) {
	_, ev, ts := newTestServer(t, Config{})

	resp, body := post(t, ts, fidelityBody("NMM/N6/PCM", "analytic"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analytic request: status %d body %v", resp.StatusCode, body)
	}
	if ev.Replays() != 0 {
		t.Fatalf("analytic request triggered %d replays, want 0", ev.Replays())
	}
	if refs := body["replay_refs"].(float64); refs != 0 {
		t.Fatalf("analytic result reports replay_refs=%v, want 0", refs)
	}
	if resp.Header.Get("X-Memsimd-Cache") != "analytic" {
		t.Fatalf("analytic computation served with cache status %q", resp.Header.Get("X-Memsimd-Cache"))
	}
	analyticAMAT := body["metrics"].(map[string]any)["amat_ns"].(float64)

	// The exact answer for the same design replays and must not share the
	// analytic result's cache entry.
	resp, body = post(t, ts, fidelityBody("NMM/N6/PCM", "exact"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("exact request: status %d body %v", resp.StatusCode, body)
	}
	if ev.Replays() != 1 {
		t.Fatalf("exact request after analytic replayed %d times, want 1 (cache keys collided?)", ev.Replays())
	}
	exactAMAT := body["metrics"].(map[string]any)["amat_ns"].(float64)
	if relerr := math.Abs(analyticAMAT-exactAMAT) / exactAMAT; relerr > analytic.AMATTolerance {
		t.Fatalf("analytic AMAT %.4f vs exact %.4f: relative error %.4f exceeds envelope %.4f",
			analyticAMAT, exactAMAT, relerr, analytic.AMATTolerance)
	}

	// Re-asking the analytic question is a plain cache hit.
	resp, _ = post(t, ts, fidelityBody("NMM/N6/PCM", "analytic"))
	if got := resp.Header.Get("X-Memsimd-Cache"); got != "hit" {
		t.Fatalf("repeated analytic request: cache status %q, want hit", got)
	}
	if ev.Replays() != 1 {
		t.Fatalf("repeated analytic request changed replay count to %d", ev.Replays())
	}

	// An omitted fidelity is "exact" and shares the exact entry.
	resp, _ = post(t, ts, testBody("NMM/N6/PCM"))
	if got := resp.Header.Get("X-Memsimd-Cache"); got != "hit" {
		t.Fatalf("default-fidelity request: cache status %q, want hit on the exact entry", got)
	}
}

// TestAnalyticFidelityErrors pins the typed 400s of the analytic path.
func TestAnalyticFidelityErrors(t *testing.T) {
	_, _, ts := newTestServer(t, Config{})

	resp, body := post(t, ts, fidelityBody("NMM/N6/PCM", "approximate"))
	if resp.StatusCode != http.StatusBadRequest || errorCode(t, body) != CodeInvalidRequest {
		t.Fatalf("unknown fidelity: status %d code %q", resp.StatusCode, errorCode(t, body))
	}

	faulty := fmt.Sprintf(`{"design":"NMM/N6/PCM","workload":"CG","scale":%d,"workload_scale":%d,"fidelity":"analytic","fault":{"seed":1,"bit_error_rate":0.001}}`,
		testScale, testWScale)
	resp, body = post(t, ts, faulty)
	if resp.StatusCode != http.StatusBadRequest || errorCode(t, body) != CodeInvalidRequest {
		t.Fatalf("analytic+fault: status %d code %q", resp.StatusCode, errorCode(t, body))
	}

	// A write-through custom cache is outside the analytic model: typed
	// 400, not wrong numbers.
	writeThrough := fmt.Sprintf(`{"design":{"family":"custom","custom":{"name":"wt","caches":[{"tech":"eDRAM","size_bytes":65536,"line_bytes":4096,"write_through":true}],"memory":{"tech":"PCM"}}},"workload":"CG","scale":%d,"workload_scale":%d,"fidelity":"analytic"}`,
		testScale, testWScale)
	resp, body = post(t, ts, writeThrough)
	if resp.StatusCode != http.StatusBadRequest || errorCode(t, body) != CodeAnalyticUnsupported {
		t.Fatalf("write-through analytic: status %d code %q body %v", resp.StatusCode, errorCode(t, body), body)
	}
}

// TestFidelityCacheKey pins the key-compatibility contract: exact requests
// key identically whether fidelity is omitted or explicit (so persisted
// pre-fidelity results stay valid), and analytic requests key apart.
func TestFidelityCacheKey(t *testing.T) {
	normalize := func(fidelity string) *EvalRequest {
		r := &EvalRequest{Workload: "CG", Scale: testScale, WorkloadScale: testWScale, Fidelity: fidelity}
		r.Design.Family = "NMM"
		r.Design.Config = "N6"
		if apiErr := r.Normalize(); apiErr != nil {
			t.Fatalf("normalize(%q): %v", fidelity, apiErr)
		}
		return r
	}
	defaulted, exact, analytic := normalize(""), normalize(FidelityExact), normalize(FidelityAnalytic)
	if defaulted.Fidelity != FidelityExact {
		t.Fatalf("omitted fidelity normalized to %q, want %q", defaulted.Fidelity, FidelityExact)
	}
	if defaulted.Key() != exact.Key() {
		t.Fatal("omitted and explicit exact fidelity produce different cache keys")
	}
	if exact.Key() == analytic.Key() {
		t.Fatal("exact and analytic fidelity share a cache key")
	}
}
