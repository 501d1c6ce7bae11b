package fault

import (
	"context"
	"time"
)

// Backoff defaults, applied by RetryPolicy.Delay for zero-valued fields.
const (
	// DefaultRetryBase is the first backoff delay when
	// RetryPolicy.BaseDelay is zero.
	DefaultRetryBase = 25 * time.Millisecond
	// DefaultRetryMax caps the backoff delay when RetryPolicy.MaxDelay is
	// zero.
	DefaultRetryMax = 2 * time.Second
)

// RetryPolicy paces repeated attempts at an operation that fails for
// reasons outside the request — real I/O, such as reopening a wounded
// store (serve.StoreGuard) — with an exponentially growing,
// deterministically jittered delay.
//
// The jitter is the "equal jitter" scheme — each delay is uniformly drawn
// from [d/2, d) where d doubles per attempt from BaseDelay up to MaxDelay —
// with the draw derived from hash(Seed, key, attempt), so a fleet of
// processes retrying the same failure decorrelates while a fixed seed
// reproduces the exact schedule.
//
// Evaluations are not retried: an evaluation is a pure function of its
// request key, so a failed one fails identically every time (the serving
// layer remembers such failures instead; see serve's negative cache
// entries).
type RetryPolicy struct {
	// BaseDelay is the first backoff delay (0 = DefaultRetryBase).
	BaseDelay time.Duration
	// MaxDelay caps the exponential growth (0 = DefaultRetryMax).
	MaxDelay time.Duration
	// Seed drives the deterministic jitter draws.
	Seed uint64
	// Sleep waits between attempts (nil = time.Sleep); tests inject an
	// instant clock.
	Sleep func(ctx context.Context, d time.Duration) error
	// Jitter overrides the deterministic jitter draw for a retry: it
	// returns a value in [0, 1) for (key, attempt). Nil uses the
	// hash(Seed, key, attempt) draw. Tests inject a fixed source to pin
	// exact delays without re-deriving the hash.
	Jitter func(key string, attempt int) float64
}

// Delay returns the jittered backoff before the given attempt (attempt 1 is
// the first retry).
func (p RetryPolicy) Delay(key string, attempt int) time.Duration {
	base := p.BaseDelay
	if base <= 0 {
		base = DefaultRetryBase
	}
	max := p.MaxDelay
	if max <= 0 {
		max = DefaultRetryMax
	}
	d := base << (attempt - 1)
	if d <= 0 || d > max {
		d = max
	}
	var u float64
	if p.Jitter != nil {
		u = p.Jitter(key, attempt)
	} else {
		u = unit(hash(p.Seed, hashString(key), uint64(attempt)))
	}
	return d/2 + time.Duration(u*float64(d/2))
}
