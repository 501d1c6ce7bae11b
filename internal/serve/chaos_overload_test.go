package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"hybridmem/internal/admit"
	"hybridmem/internal/fault"
	"hybridmem/internal/obs"
	"hybridmem/internal/store"
)

// overloadSeed drives every deterministic decision in the overload chaos
// scenario: the chaos plan's poisoned keys and, through them, which design
// points the scenario casts as doomed vs clean.
const overloadSeed = 21

// overloadBody is testBody with a controllable workload-scale, so the
// scenario can mint as many distinct request keys as it needs.
func overloadBody(design string, wscale uint64) string {
	return fmt.Sprintf(`{"design":%q,"workload":"CG","scale":%d,"workload_scale":%d}`,
		design, testScale, wscale)
}

// requestKey derives the server-side request key for a body, exactly as
// the handler does (decode, normalize, key), so the chaos scenarios can
// consult the chaos plan and the durable tier about specific requests.
func requestKey(t *testing.T, body string) string {
	t.Helper()
	var req EvalRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatalf("unmarshal %q: %v", body, err)
	}
	if apiErr := req.Normalize(); apiErr != nil {
		t.Fatalf("normalize %q: %v", body, apiErr)
	}
	return req.Key()
}

// castOverloadRoles partitions candidate request bodies by what the chaos
// plan has in store for them: the "doomed" body's key is poisoned (its
// evaluation panics every time), "clean" bodies never fault. The casting
// is a pure function of overloadSeed, so both determinism runs agree on
// it.
func castOverloadRoles(t *testing.T, plan *fault.ServicePlan) (doomed string, clean []string) {
	t.Helper()
	var designs []string
	for i := 1; i <= 9; i++ {
		designs = append(designs, fmt.Sprintf("NMM/N%d", i))
	}
	for i := 1; i <= 4; i++ {
		designs = append(designs, fmt.Sprintf("4LC/EH%d", i))
	}
	for _, ws := range []uint64{2048, 4096, 8192, 1024} {
		for _, d := range designs {
			body := overloadBody(d, ws)
			if plan.Poisoned(requestKey(t, body)) {
				if doomed == "" {
					doomed = body
				}
			} else {
				clean = append(clean, body)
			}
		}
	}
	if doomed == "" || len(clean) < 8 {
		t.Fatalf("seed %d casts no usable roles (doomed=%q clean=%d); key derivation changed, pick a new seed",
			overloadSeed, doomed, len(clean))
	}
	return doomed, clean
}

// overloadOutcome is one request's contribution to the determinism
// comparison across same-seed scenario runs.
type overloadOutcome struct {
	phase  string
	status int
	code   string
}

// runOverloadScenario drives one server through the three-phase overload
// script — per-client saturation, poisoned-key containment, store wound
// and heal — and returns the outcome sequence for determinism comparison.
func runOverloadScenario(t *testing.T) []overloadOutcome {
	t.Helper()
	plan := &fault.ServicePlan{Seed: overloadSeed, PanicFraction: 0.2}
	doomed, clean := castOverloadRoles(t, plan)

	// Durable tier with an armed torn write (tears exactly one append when
	// told to) and a heal gate, so the degraded window has deterministic
	// edges instead of racing the reopen goroutine.
	var tearNext, allowHeal atomic.Bool
	torn := func(file string, off int64, rec []byte) int {
		if tearNext.CompareAndSwap(true, false) {
			return len(rec) / 2
		}
		return -1
	}
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{TornWrite: torn})
	if err != nil {
		t.Fatal(err)
	}
	reopen := func() (*store.Store, error) {
		if !allowHeal.Load() {
			return nil, errors.New("reopen gated by the test harness")
		}
		return store.Open(dir, store.Options{TornWrite: torn})
	}
	var logbuf syncBuffer
	logger := obs.NewLogger(&logbuf)
	guard := NewStoreGuard(st, reopen, fault.RetryPolicy{
		Sleep: func(context.Context, time.Duration) error {
			time.Sleep(time.Millisecond)
			return nil
		},
	}, logger)
	t.Cleanup(func() { guard.Close() })

	clock := &admitClock{}
	ev := NewEvaluator(0, nil)
	s := New(Config{
		Runner:      ev,
		MaxInFlight: 4,
		Chaos:       plan,
		RateLimit:   admit.LimiterConfig{Rate: 1, Burst: 3, Now: clock.Now},
		StoreGuard:  guard,
		Log:         logger,
	})
	ts := newHTTPServer(t, s)
	wounds0, heals0 := guard.wounds.Value(), guard.heals.Value()
	dropped0 := s.storeDropped.Value()

	var outcomes []overloadOutcome
	send := func(phase, client, body string, wantStatus int, wantCode string) map[string]any {
		t.Helper()
		resp, decoded := postWith(t, ts, body, map[string]string{clientHeader: client})
		o := overloadOutcome{phase: phase, status: resp.StatusCode}
		if resp.StatusCode != http.StatusOK {
			o.code = errorCode(t, decoded)
		}
		outcomes = append(outcomes, o)
		if resp.StatusCode != wantStatus || o.code != wantCode {
			t.Fatalf("%s: %s got (%d, %q), want (%d, %q): %v",
				phase, client, resp.StatusCode, o.code, wantStatus, wantCode, decoded)
		}
		return decoded
	}

	// --- Phase A: a saturating client is throttled, its neighbor is not.
	// The sweep client spends its burst of 3 on a frozen clock; every
	// further request is refused with the exact refill time while the
	// interactive client's own bucket keeps admitting it.
	for i := 0; i < 3; i++ {
		send("overload", "sweep", clean[0], http.StatusOK, "")
	}
	for i := 0; i < 3; i++ {
		decoded := send("overload", "sweep", clean[0], http.StatusTooManyRequests, CodeRateLimited)
		e := decoded["error"].(map[string]any)
		if ms, _ := e["retry_after_ms"].(float64); int64(ms) != 1000 {
			t.Fatalf("throttled retry_after_ms = %v, want 1000", e["retry_after_ms"])
		}
		send("overload", "interactive", clean[0], http.StatusOK, "")
	}
	clock.Advance(time.Second) // one refill re-admits the sweep client
	send("overload", "sweep", clean[0], http.StatusOK, "")

	// --- Phase B: a poisoned key costs one evaluation. The doomed
	// design's first request spends a replay and panics (500 eval_panic);
	// every repeat is answered from its negative entry with the same error
	// and no replay, while clean designs keep evaluating.
	advance := func() { clock.Advance(time.Second) }
	replays0 := ev.replaysTotal.Value()
	for i := 0; i < 4; i++ {
		advance()
		send("poison", "batch", doomed, http.StatusInternalServerError, CodePanic)
	}
	if d := ev.replaysTotal.Value() - replays0; d != 1 {
		t.Fatalf("poisoned key cost %d replays over 4 requests, want 1", d)
	}
	advance()
	send("poison", "batch", clean[0], http.StatusOK, "") // warm key still serves
	advance()
	send("poison", "batch", clean[1], http.StatusOK, "") // fresh evaluation unaffected

	// --- Phase C: a mid-traffic store wound degrades durability without
	// dropping requests, and the background reopen restores it.
	preBody, woundBody, duringBody, postBody := clean[2], clean[3], clean[4], clean[5]
	advance()
	send("wound", "steady", preBody, http.StatusOK, "")
	if _, ok, err := guard.GetDoc(requestKey(t, preBody)); err != nil || !ok {
		t.Fatalf("pre-wound result not durable (ok=%v err=%v)", ok, err)
	}

	tearNext.Store(true) // the next append tears mid-record
	advance()
	send("wound", "steady", woundBody, http.StatusOK, "")
	if got := guard.State(); got != StoreStateDegraded {
		t.Fatalf("state after wound = %q, want %q", got, StoreStateDegraded)
	}
	if d := guard.wounds.Value() - wounds0; d != 1 {
		t.Fatalf("wounds counter delta = %d, want 1", d)
	}
	if body := readyzBody(t, ts); body != "degraded: durable store wounded, reopen in progress\n" {
		t.Fatalf("degraded readyz body = %q", body)
	}

	// Degraded window: serving continues cache/replay-only; the durable
	// write is dropped, not errored.
	advance()
	send("wound", "steady", duringBody, http.StatusOK, "")
	if d := s.storeDropped.Value() - dropped0; d == 0 {
		t.Fatal("no dropped durable writes recorded during the degraded window")
	}

	// Open the heal gate and wait for the background reopen to land.
	allowHeal.Store(true)
	deadline := time.Now().Add(5 * time.Second)
	for guard.State() != StoreStateOK {
		if time.Now().After(deadline) {
			t.Fatal("store never healed after the gate opened")
		}
		time.Sleep(time.Millisecond)
	}
	if d := guard.heals.Value() - heals0; d != 1 {
		t.Fatalf("heals counter delta = %d, want 1", d)
	}
	if body := readyzBody(t, ts); body != "ready\n" {
		t.Fatalf("healed readyz body = %q", body)
	}

	// Durability resumed: a fresh evaluation lands in the reopened store,
	// and everything committed before the wound survived torn-tail
	// recovery.
	advance()
	send("wound", "steady", postBody, http.StatusOK, "")
	if _, ok, err := guard.GetDoc(requestKey(t, postBody)); err != nil || !ok {
		t.Fatalf("post-heal result not durable (ok=%v err=%v)", ok, err)
	}
	if _, ok, err := guard.GetDoc(requestKey(t, preBody)); err != nil || !ok {
		t.Fatalf("pre-wound result lost across the heal (ok=%v err=%v)", ok, err)
	}

	// The run log narrates the whole lifecycle, and tags the poisoned
	// repeats as answered from the negative entry.
	var sawWound, sawHeal bool
	negatives := 0
	for _, rec := range logbuf.lines(t) {
		switch {
		case rec["event"] == "warning" && rec["message"] == "store_wound":
			sawWound = true
		case rec["event"] == "store_heal":
			sawHeal = true
		case rec["event"] == "http_request" && rec["outcome"] == "negative":
			negatives++
		}
	}
	if !sawWound || !sawHeal {
		t.Fatalf("run log missing lifecycle events (wound=%v heal=%v)", sawWound, sawHeal)
	}
	if negatives != 3 {
		t.Fatalf("run log has %d negative answers, want 3 (the poisoned repeats)", negatives)
	}
	return outcomes
}

// readyzBody fetches /readyz and returns its body.
func readyzBody(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz status = %d", resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestChaosOverloadWoundHeal is the admission-control counterpart of
// TestChaos: one deterministic script proves the three graceful-degradation
// claims at once —
//
//   - a client saturating its admission rate is throttled with exact refill
//     guidance while an independently keyed client is never starved;
//   - a poisoned design point costs exactly one evaluation: its repeats are
//     answered from a negative entry without replay, and healthy designs
//     are undisturbed;
//   - a mid-traffic store wound flips the server to a degraded,
//     cache/replay-only mode (readyz says so, writes are dropped and
//     counted) until the background reopen heals it, after which durable
//     writes resume and pre-wound data is intact.
//
// A second run of the identical script must reproduce the outcome sequence
// exactly: every refusal above is a deterministic function of the seed.
func TestChaosOverloadWoundHeal(t *testing.T) {
	first := runOverloadScenario(t)
	second := runOverloadScenario(t)
	if len(first) != len(second) {
		t.Fatalf("outcome counts diverged across same-seed runs: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("request %d diverged across same-seed runs: %+v vs %+v", i, first[i], second[i])
		}
	}
	var throttled, poisoned, healedOK int
	for _, o := range first {
		switch {
		case o.code == CodeRateLimited:
			throttled++
		case o.code == CodePanic:
			poisoned++
		case o.phase == "wound" && o.status == http.StatusOK:
			healedOK++
		}
	}
	t.Logf("overload chaos: %d outcomes -> %d throttled, %d poisoned, %d served through wound+heal",
		len(first), throttled, poisoned, healedOK)
}
