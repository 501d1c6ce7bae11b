package fault

import (
	"context"
	"time"
)

// The backoff schedule: the first delay and the cap of its doubling.
const (
	retryBase = 25 * time.Millisecond
	retryMax  = 2 * time.Second
)

// RetryPolicy paces repeated attempts at an operation that fails for
// reasons outside the request — real I/O, such as reopening a wounded
// store (serve.StoreGuard) — with an exponentially growing,
// deterministically jittered delay.
//
// The jitter is the "equal jitter" scheme — each delay is uniformly drawn
// from [d/2, d) where d doubles per attempt from 25 ms up to 2 s — with the
// draw derived from hash(0, key, attempt), so a fixed key reproduces the
// exact schedule.
//
// Evaluations are not retried: an evaluation is a pure function of its
// request key, so a failed one fails identically every time (the serving
// layer remembers such failures instead; see serve's negative cache
// entries).
type RetryPolicy struct {
	// Sleep waits between attempts, returning early with ctx's error when
	// ctx ends (nil = a timer that honours ctx); tests inject an instant
	// or gated clock.
	Sleep func(ctx context.Context, d time.Duration) error
}

// Delay returns the jittered backoff before the given attempt (attempt 1 is
// the first retry).
func (p RetryPolicy) Delay(key string, attempt int) time.Duration {
	d := retryBase << (attempt - 1)
	if d <= 0 || d > retryMax {
		d = retryMax
	}
	u := unit(hash(0, hashString(key), uint64(attempt)))
	return d/2 + time.Duration(u*float64(d/2))
}

// Wait sleeps for Delay(key, attempt) through Sleep, or until ctx ends.
func (p RetryPolicy) Wait(ctx context.Context, key string, attempt int) error {
	d := p.Delay(key, attempt)
	if p.Sleep != nil {
		return p.Sleep(ctx, d)
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
