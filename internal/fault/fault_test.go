package fault

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestHashDeterministicAndSpread(t *testing.T) {
	if hash(1, 2, 3) != hash(1, 2, 3) {
		t.Fatal("hash is not deterministic")
	}
	if hash(1, 2, 3) == hash(1, 2, 4) || hash(1, 2) == hash(2, 1) {
		t.Fatal("hash ignores coordinates")
	}
	if hashString("NMM/N6") != hashString("NMM/N6") {
		t.Fatal("hashString is not deterministic")
	}
	// unit stays in [0, 1) over a sample of inputs.
	for i := uint64(0); i < 1000; i++ {
		u := unit(hash(i))
		if u < 0 || u >= 1 {
			t.Fatalf("unit(hash(%d)) = %g out of [0,1)", i, u)
		}
	}
}

func TestRecoverToCapturesTypedPanicValues(t *testing.T) {
	typed := errors.New("typed device fault")
	f := func() (err error) {
		defer RecoverTo(&err, "evaluate X")
		panic(typed)
	}
	err := f()
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("got %T, want *PanicError", err)
	}
	if pe.Op != "evaluate X" || len(pe.Stack) == 0 {
		t.Fatalf("PanicError missing op/stack: %+v", pe)
	}
	if !errors.Is(err, typed) {
		t.Fatal("panic value that is an error must unwrap through PanicError")
	}
	if !strings.Contains(pe.Error(), "evaluate X") {
		t.Fatalf("Error() = %q does not name the operation", pe.Error())
	}
}

func TestRecoverToLeavesNormalReturnsAlone(t *testing.T) {
	want := errors.New("ordinary failure")
	f := func() (err error) {
		defer RecoverTo(&err, "op")
		return want
	}
	if err := f(); !errors.Is(err, want) {
		t.Fatalf("RecoverTo clobbered a normal error return: %v", err)
	}
}

// TestRetryDelayJitterBounds holds every delay inside its equal-jitter
// interval [d/2, d), where d doubles from retryBase up to retryMax, and
// pins the store-reopen schedule so the backoff a wounded store heals on
// cannot drift.
func TestRetryDelayJitterBounds(t *testing.T) {
	var p RetryPolicy
	for attempt := 1; attempt <= 8; attempt++ {
		d := p.Delay("key", attempt)
		full := retryBase << (attempt - 1)
		if full > retryMax {
			full = retryMax
		}
		if d < full/2 || d >= full {
			t.Fatalf("attempt %d delay %v out of [%v, %v)", attempt, d, full/2, full)
		}
		if d != p.Delay("key", attempt) {
			t.Fatalf("attempt %d delay is not deterministic", attempt)
		}
	}
	if p.Delay("key", 1) == p.Delay("other", 1) {
		t.Fatal("different keys drew identical jitter (decorrelation broken)")
	}
	want := []time.Duration{21687872, 29235186, 55020218, 199592953,
		360761948, 523400715, 1152012199, 1464984866}
	for i, w := range want {
		if d := p.Delay("store-reopen", i+1); d != w {
			t.Fatalf("store-reopen attempt %d delay = %d, want %d", i+1, d, w)
		}
	}
}

func TestServicePlanDeterministicAndProportional(t *testing.T) {
	p := &ServicePlan{Seed: 42, PanicFraction: 0.25}
	poisoned := 0
	const n = 2000
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("key-%d", i)
		a := p.Poisoned(key)
		if a != p.Poisoned(key) {
			t.Fatal("Poisoned is not deterministic")
		}
		if a {
			poisoned++
		}
	}
	frac := float64(poisoned) / n
	if frac < 0.18 || frac > 0.32 {
		t.Fatalf("poisoned fraction = %.3f, want ~0.25", frac)
	}

	// A nil plan is inert.
	var nilPlan *ServicePlan
	if nilPlan.Poisoned("x") {
		t.Fatal("nil ServicePlan injected a fault")
	}
}

func TestRetryWaitSleepsTheDelayOrUntilCanceled(t *testing.T) {
	var slept time.Duration
	p := RetryPolicy{Sleep: func(_ context.Context, d time.Duration) error {
		slept = d
		return nil
	}}
	if err := p.Wait(context.Background(), "k", 3); err != nil || slept != p.Delay("k", 3) {
		t.Fatalf("Wait slept %v (err %v), want Delay %v through Sleep", slept, err, p.Delay("k", 3))
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := (RetryPolicy{}).Wait(ctx, "k", 8); err != context.Canceled {
		t.Fatalf("Wait on a canceled context = %v, want context.Canceled", err)
	}
}
