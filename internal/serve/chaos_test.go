package serve

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"hybridmem/internal/fault"
)

// chaosRequests sizes the TestChaos request population. The Makefile's
// `make chaos` target raises it to 1000; `go test ./internal/serve` runs a
// smaller default so the tier-1 suite stays fast.
var chaosRequests = flag.Int("chaos-requests", 200, "requests to drive through the TestChaos harness")

// chaosOutcome is what one request contributed to the harness's evidence.
type chaosOutcome struct {
	status int
	cache  string // X-Memsimd-Cache
	code   string // typed error code for non-200s
	body   string // raw error body for non-200s
	fault  map[string]float64
}

// chaosRun is one server's pass over the deterministic request schedule:
// the per-request outcomes plus the process counters the harness checks
// containment against.
type chaosRun struct {
	outcomes     []chaosOutcome
	poisoned     []bool // per body: is its key poisoned under the plan?
	bodies       int    // distinct bodies in the schedule
	replays      uint64 // memsimd.replays_total delta
	panics       uint64 // memsimd.panics_recovered delta
	negativeHits uint64 // memsimd.negative_hits delta
}

// runChaosServer drives the same deterministic request schedule through a
// freshly built server.
func runChaosServer(t *testing.T, n int) chaosRun {
	t.Helper()
	plan := &fault.ServicePlan{Seed: 7, PanicFraction: 0.25}
	s, ev, ts := newTestServer(t, Config{MaxInFlight: 4, Chaos: plan})

	// A mixed population: every Table 3 NMM row plus 4LC points, half of
	// them with device-fault injection. Each body is one request key.
	var bodies []string
	for i := 1; i <= 9; i++ {
		d := fmt.Sprintf("NMM/N%d", i)
		bodies = append(bodies, testBody(d))
		bodies = append(bodies, testFaultBody(d, `{"seed":11,"bit_error_rate":1e-6,"endurance_writes":5000}`))
	}
	for i := 1; i <= 4; i++ {
		bodies = append(bodies, testBody(fmt.Sprintf("4LC/EH%d", i)))
	}
	run := chaosRun{bodies: len(bodies)}
	for _, b := range bodies {
		run.poisoned = append(run.poisoned, plan.Poisoned(requestKey(t, b)))
	}

	replays0, panics0, neg0 := ev.replaysTotal.Value(), s.panics.Value(), s.negativeHits.Value()
	for i := 0; i < n; i++ {
		resp, err := http.Post(ts.URL+"/v1/evaluate", "application/json", strings.NewReader(bodies[i%len(bodies)]))
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("request %d: reading body: %v", i, err)
		}
		var decoded map[string]any
		if err := json.Unmarshal(raw, &decoded); err != nil {
			t.Fatalf("request %d: malformed response %q: %v", i, raw, err)
		}
		o := chaosOutcome{status: resp.StatusCode, cache: resp.Header.Get("X-Memsimd-Cache")}
		switch resp.StatusCode {
		case http.StatusOK:
			m := decoded["metrics"].(map[string]any)
			o.fault = map[string]float64{}
			for _, k := range []string{"fault_corrected", "fault_uncorrected",
				"fault_stuck_lines", "fault_retired_pages", "fault_remapped"} {
				o.fault[k] = m[k].(float64)
			}
		default:
			o.code = errorCode(t, decoded)
			o.body = string(raw)
		}
		run.outcomes = append(run.outcomes, o)
	}
	run.replays = ev.replaysTotal.Value() - replays0
	run.panics = s.panics.Value() - panics0
	run.negativeHits = s.negativeHits.Value() - neg0
	return run
}

// TestChaos is the harness behind `make chaos`: a deterministic chaos plan
// poisons a quarter of the request keys (their evaluations panic after
// spending a replay), while half the healthy requests also carry NVM fault
// injection. The server must absorb all of it —
//
//   - zero process exits: every request gets a well-formed HTTP response
//     (panics recover into typed 500s);
//   - containment: every key, poisoned or healthy, costs exactly one
//     evaluation, counted by memsimd.replays_total — a poisoned key's
//     repeats are answered from its negative entry with a byte-identical
//     eval_panic body, a healthy key's from its cached result;
//   - uncorrectable device-error rates stay bounded (ECC corrects the
//     overwhelming majority at the injected BER);
//   - a second server fed the same schedule reproduces every status, body,
//     and fault statistic bit-for-bit.
func TestChaos(t *testing.T) {
	n := *chaosRequests
	first := runChaosServer(t, n)

	sent := first.bodies
	if n < sent {
		sent = n
	}
	var poisonedSent int
	for b := 0; b < sent; b++ {
		if first.poisoned[b] {
			poisonedSent++
		}
	}
	firstBody := map[int]string{}
	var ok200, panics500 int
	for i, o := range first.outcomes {
		b := i % first.bodies
		repeat := i >= first.bodies
		switch {
		case first.poisoned[b]:
			if o.status != http.StatusInternalServerError || o.code != CodePanic {
				t.Fatalf("request %d (poisoned): status %d code %q, want 500 %s", i, o.status, o.code, CodePanic)
			}
			panics500++
			if !repeat {
				firstBody[b] = o.body
				continue
			}
			if o.cache != "negative" || o.body != firstBody[b] {
				t.Fatalf("request %d: poisoned repeat answered as %q with body %s, want negative %s",
					i, o.cache, o.body, firstBody[b])
			}
		default:
			if o.status != http.StatusOK {
				t.Fatalf("request %d (healthy): status %d code %q unexpected under chaos", i, o.status, o.code)
			}
			ok200++
			want := "miss"
			if repeat {
				want = "hit"
			}
			if o.cache != want {
				t.Fatalf("request %d (healthy): answered as %q, want %q", i, o.cache, want)
			}
		}
	}
	if ok200 == 0 {
		t.Fatal("no request succeeded under chaos")
	}
	if poisonedSent == 0 {
		t.Fatal("chaos plan poisoned nothing; harness is not exercising panic recovery")
	}
	if first.replays != uint64(sent) {
		t.Fatalf("replays_total delta = %d, want %d (one evaluation per distinct key)", first.replays, sent)
	}
	if first.panics != uint64(poisonedSent) {
		t.Fatalf("panics_recovered delta = %d, want %d (one per poisoned key)", first.panics, poisonedSent)
	}
	if want := uint64(panics500 - poisonedSent); first.negativeHits != want {
		t.Fatalf("negative_hits delta = %d, want %d (every poisoned repeat)", first.negativeHits, want)
	}
	t.Logf("chaos: %d requests over %d keys -> %d ok, %d eval_panic (%d poisoned keys, %d negative answers), %d replays",
		n, sent, ok200, panics500, poisonedSent, first.negativeHits, first.replays)

	// Bounded uncorrectable rate: at BER 1e-6, SECDED corrects the
	// overwhelming majority; detected-uncorrectable must stay a small
	// minority of observed device errors.
	var corrected, uncorrected float64
	for _, o := range first.outcomes {
		if o.fault != nil {
			corrected += o.fault["fault_corrected"]
			uncorrected += o.fault["fault_uncorrected"]
		}
	}
	if corrected == 0 {
		t.Fatal("no ECC corrections observed; fault injection did not reach the device model")
	}
	if rate := uncorrected / (corrected + uncorrected); rate > 0.2 {
		t.Fatalf("uncorrectable fraction %.3f exceeds bound 0.2 (corrected=%g uncorrected=%g)",
			rate, corrected, uncorrected)
	}

	// Determinism: an identical server fed the identical schedule must
	// reproduce every status, error body, and fault counter exactly.
	second := runChaosServer(t, n)
	for i := range first.outcomes {
		a, b := first.outcomes[i], second.outcomes[i]
		if a.status != b.status || a.code != b.code || a.cache != b.cache || a.body != b.body {
			t.Fatalf("request %d diverged across same-seed runs: (%d,%q,%q) vs (%d,%q,%q)",
				i, a.status, a.code, a.cache, b.status, b.code, b.cache)
		}
		for k, v := range a.fault {
			if b.fault[k] != v {
				t.Fatalf("request %d: fault metric %s diverged: %g vs %g", i, k, v, b.fault[k])
			}
		}
	}
}
