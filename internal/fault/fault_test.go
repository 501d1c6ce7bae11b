package fault

import (
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

func TestTransientErrorTaxonomy(t *testing.T) {
	base := errors.New("connection reset")
	err := Transient("replay", base)
	if !IsTransient(err) {
		t.Fatal("Transient error not detected by IsTransient")
	}
	if !errors.Is(err, base) {
		t.Fatal("TransientError does not unwrap to its cause")
	}
	if IsTransient(base) || IsTransient(nil) {
		t.Fatal("IsTransient misfires on plain errors")
	}
	// Wrapped transients still register.
	if !IsTransient(fmt.Errorf("outer: %w", err)) {
		t.Fatal("wrapped TransientError not detected")
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

func TestRetryDelayJitterBounds(t *testing.T) {
	p := RetryPolicy{BaseDelay: 100 * time.Millisecond, MaxDelay: time.Second, Seed: 7}
	prevCap := time.Duration(0)
	for attempt := 1; attempt <= 6; attempt++ {
		d := p.Delay("key", attempt)
		full := p.BaseDelay << (attempt - 1)
		if full <= 0 || full > p.MaxDelay {
			full = p.MaxDelay
		}
		if d < full/2 || d >= full {
			t.Fatalf("attempt %d delay %v out of [%v, %v)", attempt, d, full/2, full)
		}
		if d != p.Delay("key", attempt) {
			t.Fatalf("attempt %d delay is not deterministic", attempt)
		}
		if full >= prevCap {
			prevCap = full
		}
	}
	if p.Delay("key", 1) == p.Delay("other", 1) {
		t.Fatal("different keys drew identical jitter (decorrelation broken)")
	}
}

func TestRetryDelayInjectableJitter(t *testing.T) {
	// A seeded jitter source replaces the hash draw, pinning exact delays.
	var draws []int
	p := RetryPolicy{
		BaseDelay: 100 * time.Millisecond,
		MaxDelay:  time.Second,
		Jitter: func(key string, attempt int) float64 {
			draws = append(draws, attempt)
			return 0.5
		},
	}
	if d := p.Delay("k", 1); d != 75*time.Millisecond {
		t.Fatalf("Delay with u=0.5 = %v, want 75ms (d/2 + 0.5*d/2)", d)
	}
	if d := p.Delay("k", 2); d != 150*time.Millisecond {
		t.Fatalf("Delay with u=0.5 = %v, want 150ms", d)
	}
	if len(draws) != 2 || draws[0] != 1 || draws[1] != 2 {
		t.Fatalf("jitter source saw attempts %v, want [1 2]", draws)
	}
	// u=0 pins the lower bound of the equal-jitter interval.
	p.Jitter = func(string, int) float64 { return 0 }
	if d := p.Delay("k", 1); d != 50*time.Millisecond {
		t.Fatalf("Delay with u=0 = %v, want 50ms (interval floor)", d)
	}
}

func TestServicePlanDeterministicAndProportional(t *testing.T) {
	p := &ServicePlan{Seed: 42, PanicFraction: 0.25, TransientFraction: 0.1}
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
			if p.Decide(key, 0) != ActPanic || p.Decide(key, 99) != ActPanic {
				t.Fatal("poisoned key did not order a panic on every call")
			}
		}
	}
	frac := float64(poisoned) / n
	if frac < 0.18 || frac > 0.32 {
		t.Fatalf("poisoned fraction = %.3f, want ~0.25", frac)
	}

	// Transients fire on non-poisoned keys at roughly their fraction, and
	// depend on the call number (so a retry can dodge one).
	transients, healthyCalls := 0, 0
	varies := false
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("key-%d", i)
		if p.Poisoned(key) {
			continue
		}
		first := p.Decide(key, 0)
		if first == ActTransient {
			transients++
		}
		if first != p.Decide(key, 1) {
			varies = true
		}
		healthyCalls++
	}
	tfrac := float64(transients) / float64(healthyCalls)
	if tfrac < 0.05 || tfrac > 0.16 {
		t.Fatalf("transient fraction = %.3f, want ~0.10", tfrac)
	}
	if !varies {
		t.Fatal("transient decisions never vary across call numbers; retries could never help")
	}

	// A nil plan is inert.
	var nilPlan *ServicePlan
	if nilPlan.Poisoned("x") || nilPlan.Decide("x", 0) != ActNone {
		t.Fatal("nil ServicePlan injected a fault")
	}
}
